module dlbooster/bench

go 1.22

require dlbooster v0.0.0

replace dlbooster => ../

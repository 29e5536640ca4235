package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strings"
	"syscall"
	"time"

	"dlbooster/internal/jpeg"
)

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system, all threads
	alloc   uint64        // bytes allocated on the heap so far
	mallocs uint64        // heap objects allocated so far
}

// readUsage samples wall clock, rusage CPU and allocator totals. The
// totals come from runtime/metrics, which serves them without stopping
// the world, so a reading may be taken while the pipeline runs.
func readUsage() usage {
	samples := []rtmetrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	rtmetrics.Read(samples)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF and a valid pointer
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   samples[0].Value.Uint64(),
		mallocs: samples[1].Value.Uint64(),
	}
}

// peakRSSMiB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // see readUsage
	return float64(ru.Maxrss) / 1024
}

// fingerprint says what produced a result: numbers from different
// machines, toolchains or kernels are not comparable, and a result that
// does not say which it came from cannot be trusted later.
type fingerprint struct {
	CPUModel   string  `json:"cpu_model"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOARCH     string  `json:"goarch"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Kernel     string  `json:"jpeg_kernel"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Repeats    int     `json:"repeats"`
	RepeatSecs float64 `json:"repeat_seconds"`
	Traced     bool    `json:"traced"`
}

func newFingerprint(workload string, seed int64, repeats int, repeatSecs float64, traced bool) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
		Kernel:     jpeg.KernelName(),
		Workload:   workload,
		Seed:       seed,
		Repeats:    repeats,
		RepeatSecs: repeatSecs,
		Traced:     traced,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// gitSHA is the revision the toolchain stamped into the binary; a
// checkout that is not a git repository (the driver's) has none.
func gitSHA() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	sha, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			sha = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		sha += "+dirty"
	}
	return sha
}

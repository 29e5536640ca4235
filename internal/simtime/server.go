package simtime

// Server models a resource with fixed parallelism: an FPGA pipeline
// stage, a pool of decode worker cores, a GPU copy/compute engine, a disk
// or a link. Jobs queue FIFO, up to Capacity are in service at once, and
// busy time is accounted per slot so experiments can report utilisation
// and CPU-core cost exactly the way the paper does (busy time / wall
// time).
type Server struct {
	sim      *Sim
	capacity int
	inUse    int
	waiting  []*job

	busy      Time // accumulated service time across slots
	served    int64
	maxQueue  int
	lastStart Time
}

type job struct {
	service Time
	done    func()
}

// NewServer creates a server with the given parallelism (≥ 1).
func NewServer(sim *Sim, capacity int) *Server {
	if capacity < 1 {
		panic("simtime: server capacity must be >= 1")
	}
	return &Server{sim: sim, capacity: capacity}
}

// Visit enqueues a job needing the given service time; done (optional)
// runs on completion. Service times must be non-negative.
func (sv *Server) Visit(service Time, done func()) {
	if service < 0 {
		panic("simtime: negative service time")
	}
	j := &job{service: service, done: done}
	if sv.inUse < sv.capacity {
		sv.start(j)
		return
	}
	sv.waiting = append(sv.waiting, j)
	if len(sv.waiting) > sv.maxQueue {
		sv.maxQueue = len(sv.waiting)
	}
}

func (sv *Server) start(j *job) {
	sv.inUse++
	sv.busy += j.service
	sv.served++
	sv.sim.After(j.service, func() {
		sv.inUse--
		if len(sv.waiting) > 0 {
			next := sv.waiting[0]
			sv.waiting = sv.waiting[1:]
			sv.start(next)
		}
		if j.done != nil {
			j.done()
		}
	})
}

// Capacity returns the server's parallelism.
func (sv *Server) Capacity() int { return sv.capacity }

// InUse returns the number of slots currently serving.
func (sv *Server) InUse() int { return sv.inUse }

// QueueLen returns the number of jobs waiting.
func (sv *Server) QueueLen() int { return len(sv.waiting) }

// MaxQueueLen returns the high-water mark of the wait queue.
func (sv *Server) MaxQueueLen() int { return sv.maxQueue }

// Served returns the number of jobs that have entered service.
func (sv *Server) Served() int64 { return sv.served }

// BusyTime returns the total service time accumulated across slots.
func (sv *Server) BusyTime() Time { return sv.busy }

// Utilization returns busy time over capacity×elapsed — for a CPU worker
// pool this is exactly "cores consumed / cores provisioned".
func (sv *Server) Utilization(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return sv.busy.Seconds() / (float64(sv.capacity) * elapsed.Seconds())
}

// BusyCores returns busy time over elapsed: the average number of slots
// in use, the paper's "CPU cost (# cores)" metric.
func (sv *Server) BusyCores(elapsed Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return sv.busy.Seconds() / elapsed.Seconds()
}

package sim

// Server models a FIFO single-server queueing station in virtual time.
// The training simulator uses one Server per parameter-server shard:
// gradient updates queue and are served one at a time, which is what
// produces the parameter-server bottleneck the paper characterizes
// (Table III, Figs. 4 and 12).
type Server struct {
	k *Kernel
	// busyUntil is the virtual time at which the server finishes all
	// currently accepted work.
	busyUntil Time
	// Served counts completed jobs, BusyTime integrates service time;
	// together they give utilization for bottleneck diagnosis.
	served   uint64
	busyTime float64
}

// NewServer returns a FIFO server bound to the kernel.
func NewServer(k *Kernel) *Server {
	return &Server{k: k}
}

// SubmitID enqueues a job with the given service time and posts done,
// a registered callback, when the job completes; it returns the
// completion time. Jobs are served in submission order; a job
// submitted while the server is busy waits for all earlier work.
// Completions take the kernel's pointer-free fire-and-forget lane and
// are never cancelled, so no Handle exists.
func (s *Server) SubmitID(service float64, done FnID) Time {
	if service < 0 {
		panic("sim: negative service time")
	}
	start := s.k.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	finish := start + Time(service)
	s.busyUntil = finish
	s.busyTime += service
	s.served++
	s.k.Post(finish, done)
	return finish
}

// QueueDelay returns how long a job submitted now would wait before
// starting service.
func (s *Server) QueueDelay() float64 {
	if s.busyUntil <= s.k.Now() {
		return 0
	}
	return float64(s.busyUntil - s.k.Now())
}

// Served returns the number of completed (or scheduled-to-complete)
// jobs.
func (s *Server) Served() uint64 { return s.served }

// Utilization returns the fraction of virtual time the server has been
// busy since the start of the simulation, or 0 at time zero.
func (s *Server) Utilization() float64 {
	now := s.k.Now().Seconds()
	if now <= 0 {
		return 0
	}
	busy := s.busyTime
	// Work scheduled beyond "now" has not happened yet.
	if s.busyUntil > s.k.Now() {
		busy -= float64(s.busyUntil - s.k.Now())
	}
	if busy < 0 {
		busy = 0
	}
	return busy / now
}

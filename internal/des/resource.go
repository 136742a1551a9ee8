package des

import "time"

// TokenPool models a bounded pool of identical execution entities (httpd
// worker processes, JBoss threads bounded by MaxThreads, MySQL connection
// threads). Acquire hands a token to the requester as soon as one is free,
// in FIFO order; the wait, if any, is virtual time spent queued.
type TokenPool struct {
	sim      *Simulator
	capacity int
	inUse    int
	waiters  []func()

	// Telemetry for the evaluation harness.
	peakInUse   int
	totalWaitNs int64
	grants      uint64
}

// NewTokenPool returns a pool with the given capacity. Capacity must be >= 1.
func NewTokenPool(sim *Simulator, capacity int) *TokenPool {
	if capacity < 1 {
		capacity = 1
	}
	return &TokenPool{sim: sim, capacity: capacity}
}

// Acquire requests a token; granted(now) runs (possibly immediately) when
// one is available.
func (p *TokenPool) Acquire(granted func()) {
	if p.inUse < p.capacity && len(p.waiters) == 0 {
		p.grant(0)
		granted()
		return
	}
	start := p.sim.Now()
	p.waiters = append(p.waiters, func() {
		p.grant(p.sim.Now() - start)
		granted()
	})
}

func (p *TokenPool) grant(waited time.Duration) {
	p.inUse++
	p.grants++
	p.totalWaitNs += int64(waited)
	if p.inUse > p.peakInUse {
		p.peakInUse = p.inUse
	}
}

// Release returns a token to the pool, waking the oldest waiter if any.
// The waiter resumes via a zero-delay event so that release sites never
// re-enter user code synchronously.
func (p *TokenPool) Release() {
	if p.inUse <= 0 {
		return
	}
	p.inUse--
	if len(p.waiters) == 0 {
		return
	}
	next := p.waiters[0]
	copy(p.waiters, p.waiters[1:])
	p.waiters[len(p.waiters)-1] = nil
	p.waiters = p.waiters[:len(p.waiters)-1]
	p.sim.Schedule(0, next)
}

// Waiting returns the number of queued acquirers.
func (p *TokenPool) Waiting() int { return len(p.waiters) }

// CPU models a node's processor set as an m-server FIFO queue: a job asks
// for `demand` of processing and is called back when it completes. This is
// what produces realistic response-time inflation near saturation for the
// throughput/response-time figures (Fig. 12, 13, 16).
type CPU struct {
	sim   *Simulator
	cores int
	busy  int
	queue []cpuJob
	jobs  uint64 // completed demands
}

type cpuJob struct {
	demand time.Duration
	done   func()
}

// NewCPU returns a CPU with the given core count (>=1).
func NewCPU(sim *Simulator, cores int) *CPU {
	if cores < 1 {
		cores = 1
	}
	return &CPU{sim: sim, cores: cores}
}

// Use runs `demand` worth of work and calls done on completion. Zero or
// negative demand completes via a zero-delay event.
func (c *CPU) Use(demand time.Duration, done func()) {
	if demand <= 0 {
		c.sim.Schedule(0, done)
		return
	}
	if c.busy < c.cores {
		c.start(demand, done)
		return
	}
	c.queue = append(c.queue, cpuJob{demand: demand, done: done})
}

func (c *CPU) start(demand time.Duration, done func()) {
	c.busy++
	c.sim.Schedule(demand, func() {
		c.busy--
		c.jobs++
		if len(c.queue) > 0 {
			job := c.queue[0]
			copy(c.queue, c.queue[1:])
			c.queue[len(c.queue)-1] = cpuJob{}
			c.queue = c.queue[:len(c.queue)-1]
			c.start(job.demand, job.done)
		}
		done()
	})
}

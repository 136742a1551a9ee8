package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/activity"
	"repro/internal/core"
	"repro/internal/transport"
)

// ingestDrainEvery is the ingest front's Tick cadence on the wire
// workloads, the same record count replay-cont drains on.
const ingestDrainEvery = 256

// runWire ships the trace over 127.0.0.1: one generator goroutine (the
// caller) offers each record, in merged timestamp order, to its host's
// transport.Agent; a transport.Collector decodes the frames into a
// core.Ingest front that owns the session. One connection per traced host
// is the protocol's minimum (one HELLO per host).
func runWire(p *pass) (err error) {
	w, in := p.w, p.in
	sess, err := core.NewSession(w.options(in), in.hosts)
	if err != nil {
		return err
	}
	iopts := core.IngestOptions{
		DrainEvery: ingestDrainEvery,
		Release:    activity.ReleaseRecord,
		Sinks:      p.sinks(p.ingest),
	}
	if w.paced {
		iopts.FlushInterval = 25 * time.Millisecond
	}
	if p.probe != nil {
		iopts.OnApplied = p.probe.applied
	}
	ing := core.NewIngest(sess, iopts)
	var sink transport.Sink = ing
	if p.probe != nil {
		p.probe.inner = ing
		sink = p.probe
	}
	col, err := transport.NewCollector(sink, transport.CollectorConfig{Hosts: in.hosts})
	if err != nil {
		ing.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ing.Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- col.Serve(ln) }()

	agents := make([]*transport.Agent, 0, len(in.hosts))
	// Teardown, on every path: nothing this pass started outlives it.
	defer func() {
		if err != nil {
			for _, a := range agents {
				a.Abort()
			}
		}
		col.Shutdown()
		ln.Close()
		if serr := <-served; serr != nil && err == nil {
			err = fmt.Errorf("collector: %w", serr)
		}
		ing.Close()
	}()
	for _, h := range in.hosts {
		cfg := transport.AgentConfig{Addr: ln.Addr().String(), Host: h}
		if w.paced {
			cfg.FlushInterval = 5 * time.Millisecond
		}
		if p.probe != nil {
			cfg.Dial = p.probe.dial
		}
		a, err := transport.NewAgent(cfg)
		if err != nil {
			return err
		}
		agents = append(agents, a)
	}

	p.startClock()
	if w.paced && !p.closed {
		err = p.feedPaced(agents)
	} else {
		err = p.feedClosed(agents)
	}
	if err != nil {
		return err
	}
	p.fed = p.since()
	if p.traced() {
		// End of input for the heap reading: everything offered has been
		// acked and applied, and no host has closed yet.
		s := p.drive.begin(spIngestSync)
		for _, a := range agents {
			for a.Unacked() > 0 {
				time.Sleep(200 * time.Microsecond)
			}
		}
		err := ing.Sync()
		p.drive.end(s)
		if err != nil {
			return err
		}
		p.heapAtEOF()
	}
	p.closeStart = p.since()
	for i, a := range agents {
		s := p.drive.begin(spAgentClose)
		err := a.Close()
		p.drive.end(s)
		if err != nil {
			return fmt.Errorf("agent %s: close: %w", in.hosts[i], err)
		}
	}
	s := p.drive.begin(spCollectorDone)
	<-col.Done()
	p.drive.end(s)
	s = p.drive.begin(spIngestClose)
	p.res = ing.Close()
	p.drive.end(s)
	p.stopClock()

	for _, st := range col.Status() {
		p.disconnects += st.Disconnects
	}
	return nil
}

// feedClosed is the closed loop: the next record is offered as soon as
// Record returns, so a slow collector receives less load.
func (p *pass) feedClosed(agents []*transport.Agent) error {
	in := p.in
	p.stamps = make([]int64, 0, len(in.trace)/stampEvery+1)
	for i, a := range in.trace {
		s := p.drive.begin(spRecord)
		err := agents[in.hostOf[i]].Record(a)
		p.drive.end(s)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if (i+1)%stampEvery == 0 {
			p.stamps = append(p.stamps, p.since())
		}
	}
	return nil
}

// feedPaced is the open loop: record i is offered once in.due[i] has
// passed, whatever the collector is doing. The generator only sleeps (a
// spinning generator would take one of the two cores from the system
// under test), so it wakes at most every minSleep and offers everything
// that fell due meanwhile. How late a record went out is kept for the
// records offered straight after a sleep: that is the generator's own
// lateness (it shares two Ps with the system and can oversleep by tens of
// ms while the pool is busy); a record delayed by the blocking Record
// calls before it was delayed by the system, which emit lag — measured
// from the due time — already charges.
func (p *pass) feedPaced(agents []*transport.Agent) error {
	const minSleep = 200 * time.Microsecond
	const rereadClock = 64 // records offered per clock reading while behind
	in := p.in
	p.late = make([]int64, 0, len(in.trace))
	slept := false
	for i := 0; i < len(in.trace); {
		now := p.since()
		if wait := time.Duration(in.due[i] - now); wait > 0 {
			s := p.drive.begin(spLoadgenWait)
			time.Sleep(max(wait, minSleep))
			p.drive.end(s)
			slept = true
			continue
		}
		for k := 0; k < rereadClock && i < len(in.trace) && in.due[i] <= now; k++ {
			if slept {
				p.late = append(p.late, now-in.due[i])
			}
			s := p.drive.begin(spRecord)
			err := agents[in.hostOf[i]].Record(in.trace[i])
			p.drive.end(s)
			if err != nil {
				return fmt.Errorf("record %d: %w", i, err)
			}
			i++
		}
		slept = false
	}
	return nil
}

// wireProbe is the traced pass's view of the transport and ingest layers
// from outside: it stands between the collector and the ingest front as
// the collector's BatchSink, counts bytes on the agents' connections
// through AgentConfig.Dial, and pairs each PushBatch with the OnApplied
// of its first record.
type wireProbe struct {
	inner *core.Ingest
	tx    atomic.Int64 // agent -> collector bytes
	rx    atomic.Int64 // collector -> agent bytes (acks)

	mu      sync.Mutex
	buf     *spanBuf // one flat PushBatch span per batch, all handlers
	recs    int
	pending map[string]*batchQueue
	waits   []int64 // ns from PushBatch entry to the first record applied
}

// batchQueue is one host's batches between PushBatch and application.
type batchQueue struct {
	entered []int64 // PushBatch entry, ns since t0
	size    []int
	left    int // records of the batch being applied still to come
}

func newWireProbe(in *input) *wireProbe {
	batches := len(in.trace)/64 + 64
	pr := &wireProbe{
		buf:     newSpanBuf(time.Time{}, batches),
		pending: make(map[string]*batchQueue, len(in.hosts)),
		waits:   make([]int64, 0, batches),
	}
	for _, h := range in.hosts {
		pr.pending[h] = &batchQueue{}
	}
	return pr
}

func (pr *wireProbe) Push(a *activity.Activity) error { return pr.inner.Push(a) }
func (pr *wireProbe) Heartbeat(host string, ts time.Duration) error {
	return pr.inner.Heartbeat(host, ts)
}
func (pr *wireProbe) CloseHost(host string) error { return pr.inner.CloseHost(host) }

// PushBatch implements transport.BatchSink; collector handlers call it
// concurrently, one per host.
func (pr *wireProbe) PushBatch(recs []*activity.Activity) error {
	// Read before handing over: the ingest front owns the records after.
	host, n := recs[0].Ctx.Host, len(recs)
	start := int64(time.Since(pr.buf.t0))
	pr.mu.Lock()
	q := pr.pending[host]
	q.entered = append(q.entered, start)
	q.size = append(q.size, n)
	pr.mu.Unlock()

	err := pr.inner.PushBatch(recs)

	end := int64(time.Since(pr.buf.t0))
	pr.mu.Lock()
	pr.recs += n
	pr.buf.spans = append(pr.buf.spans, span{name: spSinkBatch, parent: -1, start: start, end: end})
	pr.mu.Unlock()
	return err
}

// applied is IngestOptions.OnApplied: the ingest goroutine calls it after
// each record it has pushed into the session.
func (pr *wireProbe) applied(host string, _ time.Duration) {
	pr.mu.Lock()
	q := pr.pending[host]
	if q.left == 0 && len(q.entered) > 0 {
		pr.waits = append(pr.waits, int64(time.Since(pr.buf.t0))-q.entered[0])
		q.left = q.size[0]
		q.entered, q.size = q.entered[1:], q.size[1:]
	}
	q.left--
	pr.mu.Unlock()
}

func (pr *wireProbe) dial(addr string) (net.Conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &countConn{Conn: c, pr: pr}, nil
}

type countConn struct {
	net.Conn
	pr *wireProbe
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.pr.rx.Add(int64(n))
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.pr.tx.Add(int64(n))
	return n, err
}

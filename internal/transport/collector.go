package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/activity"
)

// Sink is where the collector delivers applied items — in production the
// serialized ingest front of the correlation session (core.Ingest). Sink
// methods are called from many connection goroutines concurrently; the
// implementation serializes (that is its whole job). PushBatch takes one
// decoded frame's run of records, one host's, in a single call and owns
// them afterwards. A blocking PushBatch IS the backpressure: the
// connection goroutine stops reading its socket, TCP flow control fills
// the agent's send buffer, and the agent's producer blocks on its bounded
// unacked queue.
type Sink interface {
	PushBatch(recs []*activity.Activity) error
	Heartbeat(host string, ts time.Duration) error
	CloseHost(host string) error
}

// CollectorConfig parametrises a Collector.
type CollectorConfig struct {
	// Hosts are the agent host names this collector accepts — the same
	// list the correlation session was opened with (sessions declare
	// every stream up front). A HELLO for any other name is rejected.
	Hosts []string

	// HelloTimeout bounds how long an accepted connection may idle before
	// sending its HELLO, so junk connections cannot pin handler
	// goroutines. Default 10s; 0 uses the default.
	HelloTimeout time.Duration

	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

// HostStatus is one host's transport-level view for dashboards: what the
// wire has delivered, independent of what correlation has released.
type HostStatus struct {
	Host        string
	Connected   bool
	Closed      bool          // clean CLOSE accepted by the sink (see the frameClose case)
	LastSeq     uint64        // highest applied item sequence
	LastTs      time.Duration // newest applied record/heartbeat timestamp
	Disconnects int           // connections lost without a clean CLOSE
}

// Collector accepts agent connections and applies their item streams to
// the sink exactly once, in per-host order. Per-host resume state (the
// applied high-water mark) lives in the collector, not the connection, so
// an agent may reconnect or restart at will.
type Collector struct {
	sink Sink
	cfg  CollectorConfig

	mu    sync.Mutex
	cond  *sync.Cond // signals a host's connection slot being released
	hosts map[string]*hostState
	open  int // declared hosts not yet cleanly closed

	done     chan struct{} // closed when every declared host closed cleanly
	shutdown chan struct{}
	wg       sync.WaitGroup
}

// hostState is one declared host's resume state. The owning connection
// (at most one at a time) mutates it under the collector mutex.
type hostState struct {
	name        string
	active      bool
	conn        net.Conn // the active connection, for takeover
	closed      bool
	lastApplied uint64
	lastTs      time.Duration
	disconnects int
}

// NewCollector returns a collector delivering to sink.
func NewCollector(sink Sink, cfg CollectorConfig) (*Collector, error) {
	if sink == nil {
		return nil, errors.New("transport: nil sink")
	}
	if len(cfg.Hosts) == 0 {
		return nil, errors.New("transport: collector needs at least one declared host")
	}
	if cfg.HelloTimeout <= 0 {
		cfg.HelloTimeout = 10 * time.Second
	}
	c := &Collector{
		sink:     sink,
		cfg:      cfg,
		done:     make(chan struct{}),
		shutdown: make(chan struct{}),
	}
	c.hosts = make(map[string]*hostState, len(cfg.Hosts))
	c.cond = sync.NewCond(&c.mu)
	for _, h := range cfg.Hosts {
		if h == "" {
			return nil, errors.New("transport: empty host name")
		}
		if _, dup := c.hosts[h]; !dup {
			c.hosts[h] = &hostState{name: h}
			c.open++
		}
	}
	return c, nil
}

// Serve accepts agent connections on ln until the listener closes or
// Shutdown is called, then waits for the in-flight handlers. Callers
// typically run it in its own goroutine and wait on Done.
func (c *Collector) Serve(ln net.Listener) error {
	defer c.wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-c.shutdown:
				return nil
			default:
			}
			return err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.handle(conn)
		}()
	}
}

// Done is closed once every declared host's stream has cleanly closed —
// the networked equivalent of "all input files consumed".
func (c *Collector) Done() <-chan struct{} { return c.done }

// Shutdown stops accepting and unblocks Serve. In-flight connections are
// not torn down by force — the caller closes the listener (Serve's loop
// exits on its error) and the sink's closure makes handlers fail fast.
func (c *Collector) Shutdown() {
	c.mu.Lock()
	select {
	case <-c.shutdown:
	default:
		close(c.shutdown)
	}
	c.mu.Unlock()
}

// Status reports every declared host's transport state, sorted by name.
func (c *Collector) Status() []HostStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]HostStatus, 0, len(c.hosts))
	for _, hs := range c.hosts {
		out = append(out, HostStatus{
			Host: hs.name, Connected: hs.active, Closed: hs.closed,
			LastSeq: hs.lastApplied, LastTs: hs.lastTs, Disconnects: hs.disconnects,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

func (c *Collector) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// handle owns one agent connection: HELLO handshake, resume ACK, then the
// batch-apply loop until CLOSE, error, or disconnect.
func (c *Collector) handle(conn net.Conn) {
	defer conn.Close()
	var buf []byte

	conn.SetReadDeadline(time.Now().Add(c.cfg.HelloTimeout))
	typ, payload, buf, err := readFrame(conn, buf)
	if err != nil || typ != frameHello {
		c.logf("collector: %s: no hello: %v", conn.RemoteAddr(), err)
		return
	}
	host, err := parseHello(payload)
	if err != nil {
		c.refuse(conn, err.Error())
		return
	}
	conn.SetReadDeadline(time.Time{})

	c.mu.Lock()
	hs := c.hosts[host]
	if hs == nil {
		c.mu.Unlock()
		c.refuse(conn, fmt.Sprintf("unknown host %q (collector declared %d hosts)", host, len(c.cfg.Hosts)))
		return
	}
	// A newer connection supersedes a stale one: a restarted agent dials
	// before the dead connection's read error surfaces here, so kill the
	// old conn and wait for its handler to release the slot. (Run one
	// agent per host — two live agents for one host will fight over it.)
	for hs.active {
		hs.conn.Close()
		c.cond.Wait()
	}
	hs.active = true
	hs.conn = conn
	resume := hs.lastApplied
	c.mu.Unlock()

	clean := false
	defer func() {
		c.mu.Lock()
		hs.active = false
		hs.conn = nil
		if !clean && !hs.closed {
			hs.disconnects++
		}
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	bw := bufio.NewWriter(conn)
	if err := writeFrame(bw, frameAck, ackPayload(buf, resume)); err != nil {
		return
	}
	if err := bw.Flush(); err != nil {
		return
	}
	c.logf("collector: %s connected from %s, resuming after seq %d", host, conn.RemoteAddr(), resume)

	br := bufio.NewReaderSize(conn, 1<<16)
	var ack []byte
	for {
		typ, payload, nextBuf, err := readFrame(br, buf)
		buf = nextBuf
		if err != nil {
			if err != io.EOF {
				c.logf("collector: %s: read: %v", host, err)
			}
			return
		}
		switch typ {
		case frameBatch:
			_, aerr := c.applyBatch(hs, payload)
			if aerr != nil {
				c.logf("collector: %s: apply: %v", host, aerr)
				c.refuse(conn, aerr.Error())
				return
			}
			c.mu.Lock()
			ackSeq := hs.lastApplied
			c.mu.Unlock()
			ack = ackPayload(ack, ackSeq)
			if err := writeFrame(bw, frameAck, ack); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case frameClose:
			// The ack below means what the sink's CloseHost means. With
			// core.Ingest: every item of the stream is received and ordered
			// behind its peers'; the session seals the stream once every
			// other open host has passed its end (or at Ingest.Close) — the
			// sink must not wait for those peers here, their agents may be
			// closing one after another behind this one.
			if err := c.sink.CloseHost(host); err != nil {
				c.refuse(conn, err.Error())
				return
			}
			c.mu.Lock()
			wasClosed := hs.closed
			hs.closed = true
			if !wasClosed {
				c.open--
				if c.open == 0 {
					close(c.done)
				}
			}
			c.mu.Unlock()
			clean = true
			writeFrame(bw, frameClose, nil)
			bw.Flush()
			c.logf("collector: %s closed cleanly at seq %d", host, hs.lastApplied)
			return
		default:
			c.refuse(conn, fmt.Sprintf("unexpected frame type %d", typ))
			return
		}
	}
}

// applyBatch applies one batch's items above the host's high-water mark.
// Sink calls happen without the collector mutex held — PushBatch may
// block on ingest backpressure, and that block must only stall this
// connection.
//
// Consecutive records accumulate into one run and reach the sink as a
// single PushBatch: one queue hop per frame instead of one per record. Heartbeats flush the
// pending run first, so the sink sees items in exact sequence order.
// Decoded records come from the activity record pool; ownership of a
// record passes to the sink with the flush, while records the sink never
// sees (the already-applied resume prefix) are released here. A run's
// slice is allocated once, sized by the items left in the frame.
func (c *Collector) applyBatch(hs *hostState, payload []byte) (applied int, err error) {
	c.mu.Lock()
	mark := hs.lastApplied
	c.mu.Unlock()
	var pend []*activity.Activity // decoded records awaiting the sink
	var pendTs time.Duration      // newest timestamp in pend
	flush := func() error {
		if len(pend) == 0 {
			return nil
		}
		if err := c.sink.PushBatch(pend); err != nil {
			// Ownership of the run is ambiguous after a failed hand-off;
			// leave the records to the GC rather than risk recycling one
			// the sink retained. This path drops the connection anyway.
			pend = nil
			return err
		}
		applied += len(pend)
		mark += uint64(len(pend))
		c.mu.Lock()
		hs.lastApplied = mark
		if pendTs > hs.lastTs {
			hs.lastTs = pendTs
		}
		c.mu.Unlock()
		// The sink owns the flushed slice now (PushBatch applies it
		// asynchronously) — start a fresh one, never reuse the backing
		// array.
		pend = nil
		return nil
	}
	err = parseBatch(payload, func(it item, left uint64) error {
		if it.seq <= mark {
			if it.rec != nil {
				activity.ReleaseRecord(it.rec) // replayed prefix: already applied
			}
			return nil
		}
		if it.seq != mark+1+uint64(len(pend)) {
			if it.rec != nil {
				activity.ReleaseRecord(it.rec)
			}
			return fmt.Errorf("transport: %s: sequence gap (%d after %d)", hs.name, it.seq, mark+uint64(len(pend)))
		}
		if it.rec != nil {
			if got, want := it.rec.Ctx.Host, hs.name; got != want {
				activity.ReleaseRecord(it.rec)
				return fmt.Errorf("transport: record for host %q on %q's stream", got, want)
			}
			if pend == nil { // a record item takes ≥ 15 bytes: bounds a forged count
				pend = make([]*activity.Activity, 0, min(left, uint64(len(payload)/15+1)))
			}
			pend = append(pend, it.rec)
			if it.rec.Timestamp > pendTs {
				pendTs = it.rec.Timestamp
			}
			return nil
		}
		// Heartbeat: deliver pending records first to preserve item order.
		if err := flush(); err != nil {
			return err
		}
		mark = it.seq
		if err := c.sink.Heartbeat(hs.name, it.hb); err != nil {
			return err
		}
		applied++
		c.mu.Lock()
		hs.lastApplied = mark
		if it.hb > hs.lastTs {
			hs.lastTs = it.hb
		}
		c.mu.Unlock()
		return nil
	})
	if err == nil {
		err = flush()
	}
	return applied, err
}

// refuse sends a terminal error frame and lets the deferred close drop
// the connection.
func (c *Collector) refuse(conn net.Conn, msg string) {
	payload := []byte(msg)
	if len(payload) > 1024 {
		payload = payload[:1024]
	}
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	writeFrame(conn, frameError, payload)
}

package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/activity"
)

// AgentConfig parametrises an Agent.
type AgentConfig struct {
	// Addr is the collector's listen address.
	Addr string

	// Host is the agent's host name — the stream it owns. The collector
	// must have been configured with it.
	Host string

	// BatchSize is how many items accumulate before a batch frame is sent
	// without waiting for the flush interval. Default 256.
	BatchSize int

	// FlushInterval bounds how long a buffered item may wait before being
	// sent — the batching latency ceiling. Default 50ms.
	FlushInterval time.Duration

	// MaxUnacked bounds the unacknowledged item window; Record blocks once
	// it fills. This is the agent end of the backpressure chain: collector
	// stalled on the correlator's bounded ingest queue → no acks → window
	// full → the producer (the kernel trace reader) blocks. Default 4096.
	MaxUnacked int

	// RetryInterval is the pause between reconnect attempts. Default 100ms.
	RetryInterval time.Duration

	// Dial, when set, replaces net.Dial("tcp", addr) — tests inject
	// in-memory pipes or failing dials.
	Dial func(addr string) (net.Conn, error)

	// Logf, when set, receives connection lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *AgentConfig) fill() error {
	if cfg.Host == "" {
		return errors.New("transport: agent needs a host name")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 50 * time.Millisecond
	}
	if cfg.MaxUnacked <= 0 {
		cfg.MaxUnacked = 4096
	}
	if cfg.MaxUnacked < cfg.BatchSize {
		cfg.MaxUnacked = cfg.BatchSize
	}
	if cfg.RetryInterval <= 0 {
		cfg.RetryInterval = 100 * time.Millisecond
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return nil
}

// Agent ships one host's record stream to a collector. Producers call
// Record and Heartbeat (any goroutine, but items are sequenced in call
// order — hold your own order if you have one); a manager goroutine owns
// the connection, batches, resends after reconnects, and trims the window
// as acks arrive. Close flushes everything and performs the CLOSE
// handshake; only then is the host's stream complete at the collector.
// The unacked window is a ring of MaxUnacked slots, allocated once, and
// each connection gathers its frames into one reused BatchSize buffer, so
// the window and the send batch allocate nothing per record. An ack
// zeroes the slots it frees, releasing their records.
type Agent struct {
	cfg AgentConfig

	mu      sync.Mutex
	cond    *sync.Cond
	ring    []item // the unacked window: n items from ring[head], contiguous ascending seq
	head, n int
	nextSeq uint64 // next sequence to assign (starts at 1)
	acked   uint64 // collector's applied high-water mark
	sentSeq uint64 // highest seq written to the current connection
	conn    net.Conn
	closed  bool  // Close called: no further items
	aborted bool  // Abort called: die without CLOSE
	err     error // terminal protocol error from the collector

	kick    chan struct{}
	abortCh chan struct{}
	runDone chan struct{}
}

// NewAgent starts an agent; it dials (and redials) in the background.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		ring:    make([]item, cfg.MaxUnacked),
		nextSeq: 1,
		kick:    make(chan struct{}, 1),
		abortCh: make(chan struct{}),
		runDone: make(chan struct{}),
	}
	a.cond = sync.NewCond(&a.mu)
	go a.run()
	return a, nil
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

// Record offers one record to the stream, blocking while the unacked
// window is full. A record whose sequence the collector already applied
// (a restarted agent re-offering its log) is dropped silently.
func (a *Agent) Record(rec *activity.Activity) error {
	return a.offer(item{rec: rec})
}

// Heartbeat offers a progress assertion: no record older than ts will
// follow. Heartbeats share the record sequence space (see item).
func (a *Agent) Heartbeat(ts time.Duration) error {
	return a.offer(item{hb: ts})
}

func (a *Agent) offer(it item) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	for a.err == nil && !a.closed && !a.aborted && a.n == len(a.ring) {
		a.cond.Wait()
	}
	if err := a.deadErr(); err != nil {
		return err
	}
	if a.closed {
		return errors.New("transport: agent closed")
	}
	it.seq = a.nextSeq
	a.nextSeq++
	if it.seq <= a.acked {
		return nil // collector already has it (restart replay)
	}
	a.ring[(a.head+a.n)%len(a.ring)] = it
	a.n++
	if a.nextSeq-1 >= a.sentSeq+uint64(a.cfg.BatchSize) {
		a.kickWriter()
	}
	return nil
}

func (a *Agent) deadErr() error {
	if a.err != nil {
		return a.err
	}
	if a.aborted {
		return errors.New("transport: agent aborted")
	}
	return nil
}

func (a *Agent) kickWriter() {
	select {
	case a.kick <- struct{}{}:
	default:
	}
}

// Close flushes every queued item, performs the CLOSE handshake, and
// waits until the collector confirms the stream fully received (its
// sink's CloseHost returned; see Collector.handle for what that promises).
func (a *Agent) Close() error {
	a.mu.Lock()
	if err := a.deadErr(); err != nil {
		a.mu.Unlock()
		return err
	}
	a.closed = true
	a.cond.Broadcast()
	a.mu.Unlock()
	a.kickWriter()
	<-a.runDone
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.deadErr()
}

// Abort kills the agent without the CLOSE handshake — the "host died"
// path. Queued items are dropped, the connection is severed, producers
// unblock with an error. The collector keeps the host open for a future
// agent to resume.
func (a *Agent) Abort() {
	a.mu.Lock()
	if !a.aborted {
		a.aborted = true
		close(a.abortCh)
		if a.conn != nil {
			a.conn.Close()
		}
		a.cond.Broadcast()
	}
	a.mu.Unlock()
	a.kickWriter()
	<-a.runDone
}

// Bounce severs the current connection without stopping the agent —
// exercises the reconnect/resume path. No-op while disconnected.
func (a *Agent) Bounce() {
	a.mu.Lock()
	if a.conn != nil {
		a.conn.Close()
	}
	a.mu.Unlock()
}

// Unacked reports the current unacknowledged window size.
func (a *Agent) Unacked() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// run is the manager: dial, session, reconnect, until a clean close,
// an abort, or a terminal collector error.
func (a *Agent) run() {
	defer func() {
		a.mu.Lock()
		a.cond.Broadcast() // release producers blocked on the window
		a.mu.Unlock()
		close(a.runDone)
	}()
	for {
		a.mu.Lock()
		dead := a.aborted || a.err != nil
		a.mu.Unlock()
		if dead {
			return
		}
		conn, err := a.cfg.Dial(a.cfg.Addr)
		if err != nil {
			a.logf("agent %s: dial: %v", a.cfg.Host, err)
			select {
			case <-a.abortCh:
				return
			case <-time.After(a.cfg.RetryInterval):
			}
			continue
		}
		if a.session(conn) {
			return
		}
		select {
		case <-a.abortCh:
			return
		case <-time.After(a.cfg.RetryInterval):
		}
	}
}

// session drives one connection: handshake, batch writer, ack reader.
// It returns true when the agent is finished for good (clean close or
// terminal error), false to reconnect and resume.
func (a *Agent) session(conn net.Conn) (finished bool) {
	defer conn.Close()

	bw := bufio.NewWriterSize(conn, 1<<16)
	if err := writeFrame(bw, frameHello, helloPayload(a.cfg.Host)); err != nil {
		return false
	}
	if err := bw.Flush(); err != nil {
		return false
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	typ, payload, buf, err := readFrame(conn, nil)
	if err != nil {
		a.logf("agent %s: handshake: %v", a.cfg.Host, err)
		return false
	}
	if typ == frameError {
		return a.terminal(fmt.Errorf("transport: collector refused %s: %s", a.cfg.Host, payload))
	}
	if typ != frameAck {
		return a.terminal(fmt.Errorf("transport: handshake got frame type %d, want ack", typ))
	}
	resume, err := parseAck(payload)
	if err != nil {
		return a.terminal(err)
	}
	conn.SetReadDeadline(time.Time{})

	a.mu.Lock()
	if a.aborted {
		a.mu.Unlock()
		return true
	}
	a.conn = conn
	a.applyAck(resume)
	a.sentSeq = resume
	a.mu.Unlock()
	a.logf("agent %s: connected, resuming after seq %d", a.cfg.Host, resume)

	readerDone := make(chan struct{})
	closeEcho := make(chan struct{})
	go a.readAcks(conn, buf, readerDone, closeEcho)
	defer func() {
		a.mu.Lock()
		a.conn = nil
		a.mu.Unlock()
		conn.Close()
		<-readerDone
	}()

	ticker := time.NewTicker(a.cfg.FlushInterval)
	defer ticker.Stop()
	var payloadBuf []byte
	pending := make([]item, 0, a.cfg.BatchSize) // one frame's items, reused
	closeSent := false
	for {
		flushDue := false
		if !closeSent {
			select {
			case <-a.kick:
			case <-ticker.C:
				flushDue = true
			case <-readerDone:
				return a.isFinished()
			}
		}

		a.mu.Lock()
		if a.aborted {
			a.mu.Unlock()
			return true
		}
		unsent := a.unsent()
		closed := a.closed
		send := unsent > 0 && (unsent >= a.cfg.BatchSize || flushDue || closed)
		a.mu.Unlock()

		if send {
			// Ship the unsent items counted above, one frame at a time.
			// Acks never pass sentSeq, so they stay unsent until written.
			for left := unsent; left > 0; left -= len(pending) {
				a.mu.Lock()
				pending = a.appendUnsent(pending[:0], min(left, a.cfg.BatchSize))
				a.mu.Unlock()
				payloadBuf = batchPayload(payloadBuf, pending)
				if err := writeFrame(bw, frameBatch, payloadBuf); err != nil {
					return a.isFinished()
				}
				a.mu.Lock()
				a.sentSeq = pending[len(pending)-1].seq
				a.mu.Unlock()
			}
			clear(pending) // do not pin the producer's records
			if err := bw.Flush(); err != nil {
				return a.isFinished()
			}
			if closed {
				a.kickWriter() // don't wait a flush interval to send CLOSE
			}
			continue // gather again before considering CLOSE
		}

		if closed && unsent == 0 && !closeSent {
			if err := writeFrame(bw, frameClose, nil); err != nil {
				return a.isFinished()
			}
			if err := bw.Flush(); err != nil {
				return a.isFinished()
			}
			closeSent = true
		}
		if closeSent {
			select {
			case <-closeEcho:
				a.mu.Lock()
				a.applyAck(a.nextSeq - 1) // close echo implies all applied
				a.mu.Unlock()
				a.logf("agent %s: closed cleanly", a.cfg.Host)
				return true
			case <-readerDone:
				return a.isFinished()
			}
		}
	}
}

// readAcks consumes collector frames on one connection: acks trim the
// window and release blocked producers, a CLOSE echo confirms the seal, an
// ERROR is terminal.
func (a *Agent) readAcks(conn net.Conn, buf []byte, done chan<- struct{}, closeEcho chan<- struct{}) {
	defer close(done)
	br := bufio.NewReader(conn)
	for {
		typ, payload, nextBuf, err := readFrame(br, buf)
		buf = nextBuf
		if err != nil {
			return
		}
		switch typ {
		case frameAck:
			seq, err := parseAck(payload)
			if err != nil {
				a.setTerminal(err)
				return
			}
			a.mu.Lock()
			a.applyAck(seq)
			a.mu.Unlock()
		case frameClose:
			close(closeEcho)
			return
		case frameError:
			a.setTerminal(fmt.Errorf("transport: collector error for %s: %s", a.cfg.Host, payload))
			return
		default:
			a.setTerminal(fmt.Errorf("transport: unexpected frame type %d from collector", typ))
			return
		}
	}
}

// unsent counts the window's items above sentSeq — its tail, since the
// window is contiguous in seq. sentSeq is either below the window (a
// resume point) or the seq of an item in it. Caller holds a.mu.
func (a *Agent) unsent() int {
	if a.n == 0 || a.sentSeq < a.ring[a.head].seq {
		return a.n
	}
	return a.n - int(a.sentSeq-a.ring[a.head].seq+1)
}

// appendUnsent appends the first k items above sentSeq to dst in seq
// order. Caller holds a.mu.
func (a *Agent) appendUnsent(dst []item, k int) []item {
	start := (a.head + a.n - a.unsent()) % len(a.ring)
	end := min(start+k, len(a.ring))
	dst = append(dst, a.ring[start:end]...)
	return append(dst, a.ring[:k-(end-start)]...) // the part past the wrap
}

// applyAck advances the applied high-water mark and frees the window's
// acked prefix, zeroing each slot. Caller holds a.mu.
func (a *Agent) applyAck(seq uint64) {
	if seq <= a.acked {
		return
	}
	a.acked = seq
	freed := false
	for a.n > 0 && a.ring[a.head].seq <= seq {
		a.ring[a.head] = item{}
		a.head = (a.head + 1) % len(a.ring)
		a.n--
		freed = true
	}
	if freed {
		a.cond.Broadcast()
	}
}

func (a *Agent) setTerminal(err error) {
	a.mu.Lock()
	if a.err == nil && !a.aborted {
		a.err = err
	}
	a.cond.Broadcast()
	a.mu.Unlock()
}

func (a *Agent) terminal(err error) bool {
	a.setTerminal(err)
	a.logf("agent %s: terminal: %v", a.cfg.Host, a.err)
	return true
}

// isFinished reports whether the agent should stop reconnecting.
func (a *Agent) isFinished() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.aborted || a.err != nil
}

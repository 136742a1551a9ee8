package transport

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/activity"
)

// seqSink records the sequence of every item the collector applies — a
// record's ID and a heartbeat's timestamp both carry it — and stalls
// every fifth batch, so the agent's window fills and waits on acks.
// While gated, a batch holding a record above hold blocks until the gate
// opens.
type seqSink struct {
	mu      sync.Mutex
	seqs    []uint64
	batches int
	gate    chan struct{}
	hold    int64
	blocked chan struct{} // closed once a batch blocks on the gate
}

func (s *seqSink) PushBatch(recs []*activity.Activity) error {
	s.mu.Lock()
	if gate := s.gate; gate != nil && recs[len(recs)-1].ID > s.hold {
		select {
		case <-s.blocked:
		default:
			close(s.blocked)
		}
		s.mu.Unlock()
		<-gate
		s.mu.Lock()
	}
	for _, r := range recs {
		s.seqs = append(s.seqs, uint64(r.ID))
		activity.ReleaseRecord(r)
	}
	s.batches++
	stall := s.batches%5 == 0
	s.mu.Unlock()
	if stall {
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

func (s *seqSink) Heartbeat(_ string, ts time.Duration) error {
	s.mu.Lock()
	s.seqs = append(s.seqs, uint64(ts))
	s.mu.Unlock()
	return nil
}

func (s *seqSink) CloseHost(string) error { return nil }

// offerSeq offers item seq of a fixed stream: every seventh item is a
// heartbeat, the rest are records; both carry seq (see seqSink).
func offerSeq(a *Agent, seq int) error {
	if seq%7 == 0 {
		return a.Heartbeat(time.Duration(seq))
	}
	return a.Record(&activity.Activity{
		ID: int64(seq), Type: activity.Send, Timestamp: time.Duration(seq) * time.Millisecond,
		Ctx:  activity.Context{Host: "h", Program: "p", PID: 1, TID: 1},
		Chan: activity.Channel{Src: activity.EP("10.0.0.1", 80), Dst: activity.EP("10.0.0.2", 9000)},
		Size: 1, ReqID: -1, MsgID: -1,
	})
}

// poll waits up to d for cond, which is evaluated under a.mu.
func poll(a *Agent, d time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(d)
	for {
		a.mu.Lock()
		ok := cond()
		a.mu.Unlock()
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, d)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestAgentWindowWraps drives an 8-slot window through dozens of wraps
// against a sink that stalls now and then: a bounce while a partly acked
// window straddles the ring's end, and an abort followed by a restarted
// agent re-offering the whole stream. Every sequence must be applied
// exactly once and in order, and the live agent's window must drain to zero.
// A trim that frees too few slots leaves acked items in the window
// forever, so the drains time out in 2 s and the whole test in 20 s.
func TestAgentWindowWraps(t *testing.T) {
	const window, total, abortAt = 8, 400, 150
	sink := &seqSink{}
	col, err := NewCollector(sink, CollectorConfig{Hosts: []string{"h"}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go col.Serve(ln)
	defer func() { col.Shutdown(); ln.Close() }()
	cfg := AgentConfig{
		Addr: ln.Addr().String(), Host: "h",
		BatchSize: 3, MaxUnacked: window,
		FlushInterval: time.Millisecond, RetryInterval: time.Millisecond,
	}

	var mu sync.Mutex
	var agents []*Agent
	start := func() (*Agent, error) {
		a, err := NewAgent(cfg)
		if err == nil {
			mu.Lock()
			agents = append(agents, a)
			mu.Unlock()
		}
		return a, err
	}
	offer := func(a *Agent, from, to int) error {
		for seq := from; seq <= to; seq++ {
			if err := offerSeq(a, seq); err != nil {
				return fmt.Errorf("offer %d: %w", seq, err)
			}
		}
		return nil
	}
	drained := func(a *Agent) error {
		return poll(a, 2*time.Second, "window drained", func() bool { return a.n == 0 })
	}

	done := make(chan error, 1)
	go func() {
		done <- func() error {
			a, err := start()
			if err != nil {
				return err
			}
			// Three items acked: the window's head sits at slot 3.
			if err := offer(a, 1, 3); err != nil {
				return err
			}
			if err := drained(a); err != nil {
				return err
			}
			// Gate the sink past seq 6 and fill the window to seq 11: the
			// first frame (seqs 4..6 at most) is acked, a later one blocks,
			// and the unacked rest runs from the head across the ring's end.
			sink.mu.Lock()
			sink.gate, sink.hold, sink.blocked = make(chan struct{}), 6, make(chan struct{})
			sink.mu.Unlock()
			if err := offer(a, 4, 11); err != nil {
				return err
			}
			select {
			case <-sink.blocked:
			case <-time.After(2 * time.Second):
				return fmt.Errorf("sink never blocked on the gate")
			}
			if err := poll(a, 2*time.Second, "partly acked window straddling the wrap", func() bool {
				return a.acked > 3 && a.n > 0 && a.head+a.n > len(a.ring)
			}); err != nil {
				return err
			}
			a.Bounce()
			sink.mu.Lock()
			close(sink.gate)
			sink.gate = nil
			sink.mu.Unlock()
			if err := offer(a, 12, abortAt); err != nil {
				return err
			}
			a.Abort() // the window's unacked items die with the agent

			a2, err := start()
			if err != nil {
				return err
			}
			if err := offer(a2, 1, total); err != nil {
				return err
			}
			if err := drained(a2); err != nil {
				return err
			}
			return a2.Close()
		}()
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		mu.Lock()
		for _, a := range agents {
			a.Abort()
		}
		mu.Unlock()
		t.Fatal("agents did not finish: the window stopped draining")
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.seqs) != total {
		t.Fatalf("sink applied %d items, want %d", len(sink.seqs), total)
	}
	for i, seq := range sink.seqs {
		if seq != uint64(i+1) {
			t.Fatalf("applied item %d has seq %d, want %d", i, seq, i+1)
		}
	}
	if st := col.Status()[0]; st.Disconnects < 2 || !st.Closed {
		t.Errorf("host status %+v: want a bounce and an abort recorded, then a clean close", st)
	}
}

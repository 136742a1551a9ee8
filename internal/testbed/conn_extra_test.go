package testbed

import (
	"testing"
	"time"

	"repro/internal/activity"
)

func TestPerDirectionFIFODelivery(t *testing.T) {
	// Two messages sent back to back must be read in order.
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 1, 1)
	receiver := b.NewEntity("java", 2, 2)
	conn := c.Dial(a, b, 8009, NetConfig{Latency: time.Millisecond})

	var got []int64
	conn.Send(sender, 111, 1, nil)
	conn.Send(sender, 222, 2, nil)
	conn.Read(receiver, func() { got = append(got, 111) })
	conn.Read(receiver, func() { got = append(got, 222) })
	c.Sim().Run()
	if len(got) != 2 || got[0] != 111 || got[1] != 222 {
		t.Fatalf("delivery order: %v", got)
	}
	// Receiver-side log sizes must be in send order too.
	log := c.Collector().PerHost()["app1"]
	if log[0].Size != 111 || log[1].Size != 222 {
		t.Fatalf("log order: %v %v", log[0], log[1])
	}
}

func TestReaderQueueFIFO(t *testing.T) {
	// Multiple outstanding reads are matched to messages in order.
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 1, 1)
	r1 := b.NewEntity("java", 2, 21)
	r2 := b.NewEntity("java", 2, 22)
	conn := c.Dial(a, b, 8009, NetConfig{})

	var order []int
	conn.Read(r1, func() { order = append(order, 1) })
	conn.Read(r2, func() { order = append(order, 2) })
	conn.Send(sender, 10, 1, nil)
	conn.Send(sender, 10, 2, nil)
	c.Sim().Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("reader order: %v", order)
	}
}

func TestBidirectionalChannelsAreDistinct(t *testing.T) {
	c, a, b := twoNodes(t)
	ea := a.NewEntity("httpd", 1, 1)
	eb := b.NewEntity("java", 2, 2)
	conn := c.Dial(a, b, 8009, NetConfig{})
	conn.Send(ea, 10, 1, nil)
	conn.Read(eb, func() {
		conn.Send(eb, 20, 1, nil)
		conn.Read(ea, nil)
	})
	c.Sim().Run()
	fwd := c.Collector().PerHost()["web1"][0].Chan
	rev := c.Collector().PerHost()["app1"][1].Chan
	if fwd != rev.Reverse() {
		t.Fatalf("reverse direction channel mismatch: %v vs %v", fwd, rev)
	}
}

func TestSendDoneRunsAfterLastSegmentLog(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 1, 1)
	receiver := b.NewEntity("java", 2, 2)
	conn := c.Dial(a, b, 8009, NetConfig{MSS: 100})
	var doneAt time.Duration
	conn.Send(sender, 500, 1, func() { doneAt = c.Sim().Now() }) // 5 segments
	conn.Read(receiver, nil)
	c.Sim().Run()
	log := c.Collector().PerHost()["web1"]
	if len(log) != 5 {
		t.Fatalf("segments = %d", len(log))
	}
	last := log[len(log)-1].Timestamp
	if doneAt != last {
		t.Fatalf("done at %v, last segment logged at %v", doneAt, last)
	}
}

func TestSegGapOrdersSegmentTimestamps(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 1, 1)
	receiver := b.NewEntity("java", 2, 2)
	conn := c.Dial(a, b, 8009, NetConfig{MSS: 100, SegGap: 10 * time.Microsecond})
	conn.Send(sender, 300, 1, nil)
	conn.Read(receiver, nil)
	c.Sim().Run()
	log := c.Collector().PerHost()["web1"]
	for i := 1; i < len(log); i++ {
		if log[i].Timestamp-log[i-1].Timestamp != 10*time.Microsecond {
			t.Fatalf("segment spacing: %v -> %v", log[i-1].Timestamp, log[i].Timestamp)
		}
	}
}

func TestEntityContextFields(t *testing.T) {
	c := NewCluster()
	n := c.AddNode(NodeConfig{Name: "x", IP: "1.2.3.4", Traced: true})
	e := n.NewEntity("prog", 10, 20)
	want := activity.Context{Host: "x", Program: "prog", PID: 10, TID: 20}
	if e.Ctx != want {
		t.Fatalf("ctx = %v", e.Ctx)
	}
	if e.Node != n {
		t.Fatal("entity node binding")
	}
}

func TestAllocatorsMonotone(t *testing.T) {
	c := NewCluster()
	n := c.AddNode(NodeConfig{Name: "x", IP: "1.2.3.4"})
	p1, p2 := n.AllocPort(), n.AllocPort()
	if p2 != p1+1 {
		t.Fatalf("ports: %d %d", p1, p2)
	}
	i1, i2 := n.AllocPID(), n.AllocPID()
	if i2 != i1+1 {
		t.Fatalf("pids: %d %d", i1, i2)
	}
	m1, m2 := c.NextMsgID(), c.NextMsgID()
	if m2 != m1+1 {
		t.Fatalf("msg ids: %d %d", m1, m2)
	}
}

func TestNodeLookupAndString(t *testing.T) {
	c := NewCluster()
	n := c.AddNode(NodeConfig{Name: "x", IP: "1.2.3.4"})
	if c.nodes["x"] != n || c.nodes["nope"] != nil {
		t.Fatal("Node lookup")
	}
	if n.traced {
		t.Fatal("traced default")
	}
}

func TestTransitScalesWithSize(t *testing.T) {
	cfg := NetConfig{Latency: time.Millisecond, Bandwidth: 1_000_000}
	small := cfg.transit(1000)  // 1ms + 1ms
	large := cfg.transit(10000) // 1ms + 10ms
	if small != 2*time.Millisecond || large != 11*time.Millisecond {
		t.Fatalf("transit: %v %v", small, large)
	}
	if free := (NetConfig{Latency: time.Millisecond}).transit(1 << 30); free != time.Millisecond {
		t.Fatalf("unlimited bandwidth transit = %v", free)
	}
}

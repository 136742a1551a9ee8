package testbed

import (
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/clock"
)

func twoNodes(t *testing.T) (*Cluster, *Node, *Node) {
	t.Helper()
	c := NewCluster()
	a := c.AddNode(NodeConfig{Name: "web1", IP: "10.0.0.1", Cores: 2, Traced: true})
	b := c.AddNode(NodeConfig{Name: "app1", IP: "10.0.0.2", Cores: 2, Traced: true})
	return c, a, b
}

func TestSendReceiveLogsActivities(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	conn := c.Dial(a, b, 8009, NetConfig{Latency: time.Millisecond})

	var readDone bool
	conn.Send(sender, 500, 7, nil)
	conn.Read(receiver, func() { readDone = true })
	c.Sim().Run()

	if !readDone {
		t.Fatal("read never completed")
	}
	logs := c.Collector().PerHost()
	if len(logs["web1"]) != 1 || len(logs["app1"]) != 1 {
		t.Fatalf("logs: web1=%d app1=%d, want 1/1", len(logs["web1"]), len(logs["app1"]))
	}
	s, r := logs["web1"][0], logs["app1"][0]
	if s.Type != activity.Send || r.Type != activity.Receive {
		t.Fatalf("types: %v %v", s.Type, r.Type)
	}
	if s.Chan != r.Chan {
		t.Fatalf("channel mismatch: %v vs %v", s.Chan, r.Chan)
	}
	if s.Size != 500 || r.Size != 500 {
		t.Fatalf("sizes: %d %d", s.Size, r.Size)
	}
	if s.ReqID != 7 || r.ReqID != 7 || s.MsgID != r.MsgID {
		t.Fatalf("truth tags: %+v %+v", s, r)
	}
	if r.Timestamp < s.Timestamp+time.Millisecond {
		t.Fatalf("receive at %v before propagation from %v", r.Timestamp, s.Timestamp)
	}
}

func TestSegmentationProducesNToN(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	conn := c.Dial(a, b, 8009, NetConfig{MSS: 400, RecvChunk: 300})

	conn.Send(sender, 900, 1, nil) // 400+400+100 on the wire
	conn.Read(receiver, nil)       // read as 300+300+300
	c.Sim().Run()

	logs := c.Collector().PerHost()
	if got := len(logs["web1"]); got != 3 {
		t.Fatalf("send segments = %d, want 3", got)
	}
	if got := len(logs["app1"]); got != 3 {
		t.Fatalf("receive segments = %d, want 3", got)
	}
	var sendSum, recvSum int64
	for _, s := range logs["web1"] {
		sendSum += s.Size
	}
	for _, r := range logs["app1"] {
		recvSum += r.Size
	}
	if sendSum != 900 || recvSum != 900 {
		t.Fatalf("segment size sums: %d %d, want 900", sendSum, recvSum)
	}
	// All segments share the logical message ID.
	msgID := logs["web1"][0].MsgID
	for _, x := range append(logs["web1"], logs["app1"]...) {
		if x.MsgID != msgID {
			t.Fatal("segments must share MsgID")
		}
	}
}

func TestReadBeforeArrivalBlocks(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	conn := c.Dial(a, b, 8009, NetConfig{Latency: 5 * time.Millisecond})

	var readAt time.Duration
	conn.Read(receiver, func() { readAt = c.Sim().Now() })
	conn.Send(sender, 100, 1, nil)
	c.Sim().Run()
	if readAt < 5*time.Millisecond {
		t.Fatalf("read completed at %v, before latency elapsed", readAt)
	}
}

func TestLateReaderTimestampsAtReadTime(t *testing.T) {
	// The message arrives at 1ms but the reader only reads at 50ms (e.g.
	// waiting for a thread): the RECEIVE activity must carry ~50ms — this
	// is what makes thread-pool waits visible in interaction latencies.
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	conn := c.Dial(a, b, 8009, NetConfig{Latency: time.Millisecond})

	conn.Send(sender, 100, 1, nil)
	c.Sim().Schedule(50*time.Millisecond, func() {
		conn.Read(receiver, nil)
	})
	c.Sim().Run()
	r := c.Collector().PerHost()["app1"][0]
	if r.Timestamp < 50*time.Millisecond {
		t.Fatalf("RECEIVE logged at %v, want >= 50ms (read time)", r.Timestamp)
	}
}

func TestBandwidthDelaysDelivery(t *testing.T) {
	c, a, b := twoNodes(t)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	// 1 MB/s => 100KB takes 100ms.
	conn := c.Dial(a, b, 8009, NetConfig{Bandwidth: 1 << 20})
	var readAt time.Duration
	conn.Send(sender, 100*1024, 1, nil)
	conn.Read(receiver, func() { readAt = c.Sim().Now() })
	c.Sim().Run()
	if readAt < 90*time.Millisecond || readAt > 120*time.Millisecond {
		t.Fatalf("delivery at %v, want ~100ms", readAt)
	}
}

func TestUntracedNodeLogsNothing(t *testing.T) {
	c := NewCluster()
	a := c.AddNode(NodeConfig{Name: "client1", IP: "10.0.0.9", Traced: false})
	b := c.AddNode(NodeConfig{Name: "web1", IP: "10.0.0.1", Traced: true})
	sender := a.NewEntity("client", 1, 1)
	receiver := b.NewEntity("httpd", 2, 2)
	conn := c.Dial(a, b, 80, NetConfig{})
	conn.Send(sender, 100, 1, nil)
	conn.Read(receiver, nil)
	c.Sim().Run()
	logs := c.Collector().PerHost()
	if len(logs["client1"]) != 0 {
		t.Fatal("untraced node must not log")
	}
	if len(logs["web1"]) != 1 {
		t.Fatalf("web1 logged %d, want 1", len(logs["web1"]))
	}
}

func TestCollectorDisableStopsLoggingAndOverhead(t *testing.T) {
	c, a, b := twoNodes(t)
	c.Collector().SetEnabled(false)
	sender := a.NewEntity("httpd", 100, 100)
	receiver := b.NewEntity("java", 200, 201)
	conn := c.Dial(a, b, 8009, NetConfig{})
	conn.Send(sender, 100, 1, nil)
	conn.Read(receiver, nil)
	c.Sim().Run()
	if c.Collector().Count() != 0 {
		t.Fatalf("disabled collector logged %d activities", c.Collector().Count())
	}
}

func TestProbeCostSlowsSegments(t *testing.T) {
	mk := func(probe time.Duration, enabled bool) time.Duration {
		c := NewCluster()
		a := c.AddNode(NodeConfig{Name: "web1", IP: "10.0.0.1", Traced: true, ProbeCost: probe})
		b := c.AddNode(NodeConfig{Name: "app1", IP: "10.0.0.2", Traced: true, ProbeCost: probe})
		c.Collector().SetEnabled(enabled)
		sender := a.NewEntity("httpd", 1, 1)
		receiver := b.NewEntity("java", 2, 2)
		conn := c.Dial(a, b, 8009, NetConfig{MSS: 100})
		var doneAt time.Duration
		conn.Send(sender, 1000, 1, nil) // 10 segments
		conn.Read(receiver, func() { doneAt = c.Sim().Now() })
		c.Sim().Run()
		return doneAt
	}
	withProbe := mk(100*time.Microsecond, true)
	without := mk(100*time.Microsecond, false)
	if withProbe <= without {
		t.Fatalf("tracing-enabled run (%v) should be slower than disabled (%v)", withProbe, without)
	}
}

func TestLocalTimestampsUseNodeClock(t *testing.T) {
	c := NewCluster()
	skewed := clock.New(clock.WithOffset(300 * time.Millisecond))
	a := c.AddNode(NodeConfig{Name: "web1", IP: "10.0.0.1", Traced: true, Clock: skewed})
	b := c.AddNode(NodeConfig{Name: "app1", IP: "10.0.0.2", Traced: true})
	sender := a.NewEntity("httpd", 1, 1)
	receiver := b.NewEntity("java", 2, 2)
	conn := c.Dial(a, b, 8009, NetConfig{Latency: time.Millisecond})
	conn.Send(sender, 100, 1, nil)
	conn.Read(receiver, nil)
	c.Sim().Run()
	s := c.Collector().PerHost()["web1"][0]
	r := c.Collector().PerHost()["app1"][0]
	// The sender's local timestamp is 300ms ahead, so it appears LATER than
	// the receive despite happening first — the skew the ranker tolerates.
	if s.Timestamp <= r.Timestamp {
		t.Fatalf("expected skewed SEND ts %v > RECEIVE ts %v", s.Timestamp, r.Timestamp)
	}
}

func TestPerHostLogsAreTimestampOrdered(t *testing.T) {
	c, a, b := twoNodes(t)
	conn := c.Dial(a, b, 8009, NetConfig{MSS: 50, RecvChunk: 70})
	for i := 0; i < 20; i++ {
		i := i
		sender := a.NewEntity("httpd", 100+i, 100+i)
		receiver := b.NewEntity("java", 200, 300+i)
		c.Sim().Schedule(time.Duration(i)*time.Millisecond, func() {
			conn.Send(sender, 200, int64(i), nil)
			conn.Read(receiver, nil)
		})
	}
	c.Sim().Run()
	for host, log := range c.Collector().PerHost() {
		for i := 1; i < len(log); i++ {
			if log[i].Timestamp < log[i-1].Timestamp {
				t.Fatalf("%s log out of order at %d", host, i)
			}
		}
	}
}

func TestNoiseGeneratorProducesUntaggedTraffic(t *testing.T) {
	c := NewCluster()
	db := c.AddNode(NodeConfig{Name: "db1", IP: "10.0.0.3", Traced: true})
	ext := c.AddNode(NodeConfig{Name: "ext1", IP: "10.0.0.200", Traced: false})
	n := StartNoise(c, NoiseConfig{
		Program:      "mysqld",
		ServiceNode:  db,
		ServicePort:  3306,
		ClientNode:   ext,
		Sessions:     3,
		MeanInterval: 10 * time.Millisecond,
		ReqSize:      64,
		RespSize:     256,
	}, 1, 500*time.Millisecond)
	c.Sim().Run()
	if n.exchanges == 0 {
		t.Fatal("no noise exchanges happened")
	}
	logs := c.Collector().PerHost()["db1"]
	if len(logs) == 0 {
		t.Fatal("noise produced no db1 activities")
	}
	for _, a := range logs {
		if a.ReqID != -1 {
			t.Fatalf("noise activity tagged with request %d", a.ReqID)
		}
		if a.Ctx.Program != "mysqld" {
			t.Fatalf("noise program = %q", a.Ctx.Program)
		}
	}
}

func TestIPToHostOnlyTraced(t *testing.T) {
	c := NewCluster()
	c.AddNode(NodeConfig{Name: "web1", IP: "10.0.0.1", Traced: true})
	c.AddNode(NodeConfig{Name: "client1", IP: "10.0.0.9", Traced: false})
	m := c.IPToHost()
	if len(m) != 1 || m["10.0.0.1"] != "web1" {
		t.Fatalf("IPToHost = %v", m)
	}
}

func TestSplitSize(t *testing.T) {
	cases := []struct {
		size  int64
		chunk int
		want  int
	}{
		{100, 0, 1},
		{100, 200, 1},
		{100, 100, 1},
		{101, 100, 2},
		{900, 400, 3},
	}
	for _, tc := range cases {
		parts := splitSize(tc.size, tc.chunk)
		if len(parts) != tc.want {
			t.Errorf("splitSize(%d,%d) = %d parts, want %d", tc.size, tc.chunk, len(parts), tc.want)
		}
		var sum int64
		for _, p := range parts {
			sum += p
		}
		if sum != tc.size {
			t.Errorf("splitSize(%d,%d) sums to %d", tc.size, tc.chunk, sum)
		}
	}
}

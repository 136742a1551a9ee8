// Package testbed simulates the paper's experimental platform: a Linux
// cluster of SMP nodes connected by a switched Ethernet, whose kernels run
// the TCP_TRACE instrumentation. The paper used 8 nodes with two PIII
// processors each and a 100 Mbps switch (§5.1); this package reproduces
// that shape as a deterministic discrete-event simulation.
//
// The substitution preserves what the correlation algorithm can observe:
// per-node logs of SEND/RECEIVE activities in node-local (skewed, drifting)
// clock time, with TCP's n-to-n segmentation between send and receive
// sides, thread/process contexts from pools that recycle entities across
// requests, background noise traffic, and an instrumentation overhead knob
// for the tracing-enabled/disabled comparison of Fig. 12/13.
package testbed

import (
	"fmt"
	"time"

	"repro/internal/activity"
	"repro/internal/clock"
	"repro/internal/des"
)

// Collector gathers activities logged by traced nodes — the union of the
// per-node TCP_TRACE logs that is shipped to the Correlator.
type Collector struct {
	enabled   bool
	nextID    int64
	byHost    map[string][]*activity.Activity
	hostOrder []string
}

// NewCollector returns an enabled collector.
func NewCollector() *Collector {
	return &Collector{enabled: true, byHost: make(map[string][]*activity.Activity)}
}

// SetEnabled turns the instrumentation on or off cluster-wide (the
// enable/disable comparison of §5.3.2). Disabled collection also removes
// the per-activity probe overhead.
func (c *Collector) SetEnabled(on bool) { c.enabled = on }

// log records one activity for a host, assigning a globally unique ID.
func (c *Collector) log(host string, a *activity.Activity) {
	a.ID = c.nextID
	c.nextID++
	if _, ok := c.byHost[host]; !ok {
		c.hostOrder = append(c.hostOrder, host)
	}
	c.byHost[host] = append(c.byHost[host], a)
}

// Count returns the total number of logged activities.
func (c *Collector) Count() int {
	n := 0
	for _, log := range c.byHost {
		n += len(log)
	}
	return n
}

// PerHost returns each traced node's log (in local-clock order, as a real
// kernel would emit it). The map and slices are the live internals; callers
// must not mutate them.
func (c *Collector) PerHost() map[string][]*activity.Activity { return c.byHost }

// Merged returns all logs concatenated in first-logged host order (the
// Correlator re-splits by host itself); deterministic for a given seed.
func (c *Collector) Merged() []*activity.Activity {
	out := make([]*activity.Activity, 0, c.Count())
	for _, host := range c.hostOrder {
		out = append(out, c.byHost[host]...)
	}
	return out
}

// Node is one simulated machine.
type Node struct {
	Name  string
	IP    string
	CPU   *des.CPU
	Clock *clock.Clock

	cluster   *Cluster
	traced    bool
	probeCost time.Duration
	nextPort  int
	nextPID   int
}

// Traced reports whether TCP_TRACE runs on this node.
func (n *Node) Traced() bool { return n.traced }

// AllocPort returns a fresh ephemeral port.
func (n *Node) AllocPort() int {
	p := n.nextPort
	n.nextPort++
	return p
}

// AllocPID returns a fresh process/thread ID.
func (n *Node) AllocPID() int {
	p := n.nextPID
	n.nextPID++
	return p
}

// Endpoint returns this node's address for the given port, interning the
// IP; Dial calls it once per connection end.
func (n *Node) Endpoint(port int) activity.Endpoint {
	return activity.EP(n.IP, port)
}

// LocalTime returns the node's current local-clock reading.
func (n *Node) LocalTime() time.Duration {
	return n.Clock.Local(n.cluster.sim.Now())
}

// probeDelay returns the per-logged-activity instrumentation cost, zero
// when tracing is disabled or the node is untraced.
func (n *Node) probeDelay() time.Duration {
	if !n.traced || !n.cluster.collector.enabled {
		return 0
	}
	return n.probeCost
}

// log emits one activity into the collector if this node is traced and
// instrumentation is enabled.
func (n *Node) log(typ activity.Type, ctx activity.Context, ch activity.Channel, size int64, reqID, msgID int64) {
	if !n.traced || !n.cluster.collector.enabled {
		return
	}
	n.cluster.collector.log(n.Name, &activity.Activity{
		Type:      typ,
		Timestamp: n.LocalTime(),
		Ctx:       ctx,
		Chan:      ch,
		Size:      size,
		ReqID:     reqID,
		MsgID:     msgID,
	})
}

// Entity is one execution entity (process or kernel thread) on a node —
// the paper's context. An entity serves one request at a time, matching
// the application-scope assumption of §2.
type Entity struct {
	Node *Node
	Ctx  activity.Context
}

// NewEntity creates an execution entity for a program on this node.
// For process-per-worker servers pass tid == pid.
func (n *Node) NewEntity(program string, pid, tid int) Entity {
	return Entity{
		Node: n,
		Ctx:  activity.Context{Host: n.Name, Program: program, PID: int32(pid), TID: int32(tid)},
	}
}

// NodeConfig configures one simulated machine.
type NodeConfig struct {
	Name  string
	IP    string
	Cores int
	// Traced enables TCP_TRACE on the node; client emulators are untraced.
	Traced bool
	// ProbeCost is the per-logged-activity overhead of the kernel probes
	// (SystemTap trap + formatting); applied only while tracing is enabled.
	ProbeCost time.Duration
	Clock     *clock.Clock
}

// Cluster is the simulated data center.
type Cluster struct {
	sim       *des.Simulator
	collector *Collector
	nodes     map[string]*Node
	nodeOrder []string
	nextMsgID int64
}

// NewCluster returns an empty cluster over a fresh simulator.
func NewCluster() *Cluster {
	return &Cluster{
		sim:       des.New(),
		collector: NewCollector(),
		nodes:     make(map[string]*Node),
	}
}

// Sim exposes the discrete-event simulator.
func (c *Cluster) Sim() *des.Simulator { return c.sim }

// Collector exposes the trace collector.
func (c *Cluster) Collector() *Collector { return c.collector }

// AddNode creates and registers a machine.
func (c *Cluster) AddNode(cfg NodeConfig) *Node {
	if cfg.Cores <= 0 {
		cfg.Cores = 2 // the paper's dual-PIII nodes
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.New()
	}
	n := &Node{
		Name:      cfg.Name,
		IP:        cfg.IP,
		CPU:       des.NewCPU(c.sim, cfg.Cores),
		Clock:     cfg.Clock,
		cluster:   c,
		traced:    cfg.Traced,
		probeCost: cfg.ProbeCost,
		nextPort:  32768,
		nextPID:   1000,
	}
	c.nodes[cfg.Name] = n
	c.nodeOrder = append(c.nodeOrder, cfg.Name)
	return n
}

// Node returns a registered node by name, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// IPToHost builds the traced-node address map the Correlator needs.
func (c *Cluster) IPToHost() map[string]string {
	m := make(map[string]string)
	for _, name := range c.nodeOrder {
		n := c.nodes[name]
		if n.traced {
			m[n.IP] = n.Name
		}
	}
	return m
}

// NextMsgID allocates a ground-truth logical message ID.
func (c *Cluster) NextMsgID() int64 {
	id := c.nextMsgID
	c.nextMsgID++
	return id
}

// String implements fmt.Stringer.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{nodes=%d t=%v activities=%d}", len(c.nodes), c.sim.Now(), c.collector.Count())
}

// Package service builds arbitrary multi-tier services of black boxes on
// the testbed from a declarative specification. The paper's algorithm is
// not specific to RUBiS — §2 claims it covers the concurrent-server design
// patterns of Stevens' UNIX Network Programming (iterative, process-per-
// connection, thread-per-connection). This package makes that claim
// testable: property tests generate random topologies (tier count, pool
// sizes, fan-out, clock skew, segmentation) and assert that the correlator
// still reconstructs every causal path exactly.
package service

import (
	"fmt"
	"time"

	"repro/internal/activity"
	"repro/internal/clock"
	"repro/internal/des"
	"repro/internal/groundtruth"
	"repro/internal/testbed"
)

// PoolKind selects a tier's concurrency model (§2's design patterns).
type PoolKind int

// Pool kinds.
const (
	// ProcessPerConnection dedicates one worker process per inbound
	// connection (Apache prefork style): context PID == TID.
	ProcessPerConnection PoolKind = iota + 1
	// ThreadPerConnection dedicates one pooled kernel thread per inbound
	// connection (JBoss/MySQL style): shared PID, recycled TIDs.
	ThreadPerConnection
)

// TierSpec describes one tier of the service.
type TierSpec struct {
	// Program is the component's program name (context identifier field).
	Program string
	// Port is the tier's listening port; tier 0's port doubles as the
	// BEGIN/END entry port.
	Port int
	// Kind selects the concurrency model.
	Kind PoolKind
	// PoolSize bounds concurrent execution entities (ignored for tier 0
	// with ProcessPerConnection, which is sized to the client count).
	PoolSize int
	// Cores is the tier node's CPU count.
	Cores int
	// Demand is CPU consumed before calling downstream; PostDemand after
	// the last downstream reply (or before replying, for the last tier).
	Demand     time.Duration
	PostDemand time.Duration
	// Calls is how many sequential requests this tier issues to the next
	// tier per inbound request (0 for the last tier).
	Calls int
	// RequestSize/ReplySize are the message sizes used when THIS tier is
	// the target of a call (or of the client, for tier 0).
	RequestSize int64
	ReplySize   int64
}

// Spec is a whole service.
type Spec struct {
	Tiers []TierSpec
	// Clients is the closed-loop client population.
	Clients int
	// ThinkTime is the mean exponential think time.
	ThinkTime time.Duration
	// Duration is how long clients keep issuing requests.
	Duration time.Duration
	// Net configures every connection (latency, bandwidth, segmentation).
	Net testbed.NetConfig
	// Skew assigns clocks across the tier nodes.
	Skew clock.SkewScenario
	// IdleHold keeps a downstream connection's entity pinned after a reply
	// (0 closes immediately after each exchange... connections persist for
	// the run when negative).
	IdleHold time.Duration
	Seed     int64
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if len(s.Tiers) == 0 {
		return fmt.Errorf("service: no tiers")
	}
	if s.Clients <= 0 {
		return fmt.Errorf("service: no clients")
	}
	for i, tier := range s.Tiers {
		if tier.Program == "" {
			return fmt.Errorf("service: tier %d unnamed", i)
		}
		if tier.Port <= 0 {
			return fmt.Errorf("service: tier %d has no port", i)
		}
		if i < len(s.Tiers)-1 && tier.Calls < 0 {
			return fmt.Errorf("service: tier %d negative fan-out", i)
		}
		if i == len(s.Tiers)-1 && tier.Calls != 0 {
			return fmt.Errorf("service: last tier must not call downstream")
		}
		if tier.Kind != ProcessPerConnection && tier.Kind != ThreadPerConnection {
			return fmt.Errorf("service: tier %d has invalid pool kind", i)
		}
	}
	return nil
}

// Result carries the run's trace and ground truth.
type Result struct {
	Spec      Spec
	Trace     []*activity.Activity
	IPToHost  map[string]string
	Truth     *groundtruth.Truth
	EntryPort int
	Completed int
}

// runner executes a spec.
type runner struct {
	spec    Spec
	cluster *testbed.Cluster
	sim     *des.Simulator
	nodes   []*testbed.Node // one per tier
	clients *testbed.Node
	pools   []*pool
	rng     *des.RNG

	nextReq   int64
	completed int
}

// pool recycles execution entities for one tier.
type pool struct {
	node    *testbed.Node
	program string
	kind    PoolKind
	pid     int
	tokens  *des.TokenPool
	free    []testbed.Entity
}

func (p *pool) acquire(fn func(testbed.Entity)) {
	p.tokens.Acquire(func() {
		var e testbed.Entity
		if n := len(p.free); n > 0 {
			e = p.free[n-1]
			p.free = p.free[:n-1]
		} else if p.kind == ProcessPerConnection {
			pid := p.node.AllocPID()
			e = p.node.NewEntity(p.program, pid, pid)
		} else {
			e = p.node.NewEntity(p.program, p.pid, p.node.AllocPID())
		}
		fn(e)
	})
}

func (p *pool) release(e testbed.Entity) {
	p.free = append(p.free, e)
	p.tokens.Release()
}

// downConn is a persistent connection from an upstream entity to the next
// tier, with the downstream entity pinned to it.
type downConn struct {
	conn     *testbed.Conn
	entity   testbed.Entity
	attached bool
	closed   bool
	idle     *des.Event
	cur      *call
	// down is this entity's persistent connection to the next tier.
	down *downConn
}

type call struct {
	req      int64
	tier     int
	upstream *downConn // where to send the reply (nil for client-facing)
}

// Run executes the service and returns its trace.
func Run(spec Spec) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.ThinkTime <= 0 {
		spec.ThinkTime = 500 * time.Millisecond
	}
	if spec.Duration <= 0 {
		spec.Duration = 10 * time.Second
	}
	r := &runner{spec: spec, cluster: testbed.NewCluster(), rng: des.NewRNG(spec.Seed*911 + 17)}
	r.sim = r.cluster.Sim()

	n := len(spec.Tiers)
	for i, tier := range spec.Tiers {
		node := r.cluster.AddNode(testbed.NodeConfig{
			Name:   fmt.Sprintf("tier%d", i),
			IP:     fmt.Sprintf("10.9.0.%d", i+1),
			Cores:  tier.Cores,
			Traced: true,
			Clock:  spec.Skew.ClockFor(i, n),
		})
		r.nodes = append(r.nodes, node)
		size := tier.PoolSize
		if size <= 0 {
			size = spec.Clients + 8
		}
		if i == 0 && tier.Kind == ProcessPerConnection {
			size = spec.Clients + 8
		}
		r.pools = append(r.pools, &pool{
			node: node, program: tier.Program, kind: tier.Kind,
			pid:    node.AllocPID(),
			tokens: des.NewTokenPool(r.sim, size),
		})
	}
	r.clients = r.cluster.AddNode(testbed.NodeConfig{
		Name: "clients", IP: "10.9.1.1", Cores: 32, Traced: false,
	})

	for c := 0; c < spec.Clients; c++ {
		r.startClient(c)
	}
	r.sim.Run()

	trace := r.cluster.Collector().Merged()
	return &Result{
		Spec:      spec,
		Trace:     trace,
		IPToHost:  r.cluster.IPToHost(),
		Truth:     groundtruth.FromTrace(trace),
		EntryPort: spec.Tiers[0].Port,
		Completed: r.completed,
	}, nil
}

// startClient opens a persistent client connection with a dedicated tier-0
// entity, like a keep-alive HTTP client against a prefork server.
func (r *runner) startClient(id int) {
	ent := r.clients.NewEntity("client", r.clients.AllocPID(), r.clients.AllocPID())
	conn := r.cluster.Dial(r.clients, r.nodes[0], r.spec.Tiers[0].Port, r.spec.Net)
	rng := des.NewRNG(r.spec.Seed*1_000_033 + int64(id))

	front := &downConn{conn: conn}
	r.pools[0].acquire(func(e testbed.Entity) {
		front.entity = e
		front.attached = true
		r.serveLoop(0, front)
	})

	var loop func()
	loop = func() {
		think := rng.Exp(r.spec.ThinkTime)
		r.sim.Schedule(think, func() {
			if r.sim.Now() >= r.spec.Duration {
				return
			}
			req := r.nextReq
			r.nextReq++
			front.cur = &call{req: req, tier: 0, upstream: nil}
			conn.Send(ent, r.spec.Tiers[0].RequestSize, req, nil)
			conn.Read(ent, func() {
				r.completed++
				loop()
			})
		})
	}
	loop()
}

// serveLoop keeps the tier entity reading its inbound connection.
func (r *runner) serveLoop(tier int, dc *downConn) {
	dc.conn.Read(dc.entity, func() {
		if dc.closed {
			return
		}
		r.handle(tier, dc)
	})
}

// handle processes one inbound request at a tier.
func (r *runner) handle(tier int, inbound *downConn) {
	spec := r.spec.Tiers[tier]
	node := r.nodes[tier]
	c := inbound.cur
	node.CPU.Use(r.draw(spec.Demand), func() {
		r.doCalls(tier, inbound, c, 0)
	})
}

// doCalls issues the tier's sequential downstream calls, then replies.
func (r *runner) doCalls(tier int, inbound *downConn, c *call, i int) {
	spec := r.spec.Tiers[tier]
	node := r.nodes[tier]
	if i >= spec.Calls || tier == len(r.spec.Tiers)-1 {
		node.CPU.Use(r.draw(spec.PostDemand), func() {
			inbound.conn.Send(inbound.entity, spec.ReplySize, c.req, nil)
			r.serveLoop(tier, inbound)
			r.armIdle(inbound)
		})
		return
	}
	r.withDownstream(tier, inbound, func(dc *downConn) {
		next := r.spec.Tiers[tier+1]
		dc.cur = &call{req: c.req, tier: tier + 1, upstream: inbound}
		dc.conn.Send(inbound.entity, next.RequestSize, c.req, nil)
		dc.conn.Read(inbound.entity, func() {
			r.doCalls(tier, inbound, c, i+1)
		})
	})
}

// withDownstream reuses or opens the inbound entity's connection to the
// next tier; the downstream entity attaches asynchronously from its pool.
func (r *runner) withDownstream(tier int, inbound *downConn, fn func(*downConn)) {
	if inbound.down != nil && !inbound.down.closed {
		if inbound.down.idle != nil {
			inbound.down.idle.Cancel()
			inbound.down.idle = nil
		}
		fn(inbound.down)
		return
	}
	next := tier + 1
	dc := &downConn{conn: r.cluster.Dial(r.nodes[tier], r.nodes[next], r.spec.Tiers[next].Port, r.spec.Net)}
	inbound.down = dc
	fn(dc)
	r.pools[next].acquire(func(e testbed.Entity) {
		if dc.closed {
			r.pools[next].release(e)
			return
		}
		dc.entity = e
		dc.attached = true
		r.serveLoop(next, dc)
	})
}

// armIdle schedules the eventual teardown of the inbound entity's
// downstream connection after the configured idle hold.
func (r *runner) armIdle(inbound *downConn) {
	dc := inbound.down
	if dc == nil || dc.closed || r.spec.IdleHold < 0 {
		return
	}
	hold := r.spec.IdleHold
	if hold == 0 {
		hold = 50 * time.Millisecond
	}
	if dc.idle != nil {
		dc.idle.Cancel()
	}
	dc.idle = r.sim.Schedule(hold, func() {
		r.closeDown(inbound, dc)
	})
}

// closeDown tears down a downstream connection if it is still current.
func (r *runner) closeDown(inbound *downConn, dc *downConn) {
	if dc.closed || inbound.down != dc {
		return
	}
	dc.closed = true
	inbound.down = nil
	// Cascade: the downstream entity's own downstream connection closes
	// with it, releasing entities back to their pools.
	if dc.down != nil {
		r.closeDown(dc, dc.down)
	}
	if dc.attached {
		r.releaseEntity(dc)
	}
}

func (r *runner) releaseEntity(dc *downConn) {
	for i := range r.nodes {
		if r.nodes[i] == dc.entity.Node {
			r.pools[i].release(dc.entity)
			return
		}
	}
}

func (r *runner) draw(mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return r.rng.Normal(mean, mean/6)
}

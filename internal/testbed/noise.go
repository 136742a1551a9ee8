package testbed

import (
	"time"

	"repro/internal/des"
)

// NoiseConfig describes one background-traffic generator, reproducing the
// §5.3.3 setup: rlogin and ssh sessions (filterable by program name) and a
// MySQL client hammering the shared database port (not filterable by
// attributes — only is_noise removes its activities).
type NoiseConfig struct {
	// Program is the server-side program name on the traced node, e.g.
	// "sshd", "rlogind" or "mysqld" (the MySQL-client case shares the real
	// database's program and port).
	Program string
	// ServiceNode is the traced node whose kernel logs the noise.
	ServiceNode *Node
	// ServicePort is the destination port on the service node.
	ServicePort int
	// ClientNode is the untraced peer generating the traffic.
	ClientNode *Node
	// Sessions is the number of concurrent noise connections.
	Sessions int
	// MeanInterval is the mean (exponential) gap between exchanges per
	// session.
	MeanInterval time.Duration
	// ReqSize and RespSize are the exchange message sizes.
	ReqSize, RespSize int64
	// ServiceDemand is CPU consumed on the service node per exchange.
	ServiceDemand time.Duration
	// Net is the connection's network behaviour.
	Net NetConfig
}

// Noise runs background sessions until the stop time.
type Noise struct {
	cluster   *Cluster
	cfg       NoiseConfig
	rng       *des.RNG
	stop      time.Duration
	exchanges uint64
}

// StartNoise launches the generator; sessions run autonomously inside the
// cluster's simulator until stopAt.
func StartNoise(c *Cluster, cfg NoiseConfig, seed int64, stopAt time.Duration) *Noise {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 1
	}
	if cfg.MeanInterval <= 0 {
		cfg.MeanInterval = 50 * time.Millisecond
	}
	n := &Noise{cluster: c, cfg: cfg, rng: des.NewRNG(seed), stop: stopAt}
	for i := 0; i < cfg.Sessions; i++ {
		server := cfg.ServiceNode.NewEntity(cfg.Program, cfg.ServiceNode.AllocPID(), cfg.ServiceNode.AllocPID())
		client := cfg.ClientNode.NewEntity("noiseclient", cfg.ClientNode.AllocPID(), cfg.ClientNode.AllocPID())
		conn := c.Dial(cfg.ClientNode, cfg.ServiceNode, cfg.ServicePort, cfg.Net)
		// Stagger session starts so exchanges interleave with real load.
		c.sim.Schedule(n.rng.Exp(cfg.MeanInterval), func() {
			n.sessionLoop(conn, client, server)
		})
	}
	return n
}

// sessionLoop runs one exchange and reschedules itself until the stop time.
func (n *Noise) sessionLoop(conn *Conn, client, server Entity) {
	sim := n.cluster.sim
	if sim.Now() >= n.stop {
		return
	}
	// Client -> server request. ReqID -1 marks noise for ground truth.
	conn.Send(client, n.cfg.ReqSize, -1, nil)
	conn.Read(server, func() {
		server.Node.CPU.Use(n.cfg.ServiceDemand, func() {
			conn.Send(server, n.cfg.RespSize, -1, nil)
			conn.Read(client, func() {
				n.exchanges++
				sim.Schedule(n.rng.Exp(n.cfg.MeanInterval), func() {
					n.sessionLoop(conn, client, server)
				})
			})
		})
	})
}

package testbed

import (
	"time"

	"repro/internal/activity"
)

// NetConfig describes one connection's network behaviour.
type NetConfig struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is bytes per second; 0 means unlimited. The EJB_Network
	// fault of §5.4.2 (100 Mbps -> 10 Mbps) is modelled by lowering this.
	Bandwidth int64
	// MSS is the sender-side segmentation threshold: a message larger than
	// MSS is logged as multiple consecutive SEND activities. 0 disables
	// splitting.
	MSS int
	// RecvChunk is the receiver-side read granularity: a delivered message
	// is logged as ceil(size/RecvChunk) RECEIVE activities. 0 disables
	// splitting. Choosing RecvChunk != MSS exercises the paper's n-to-n
	// SEND/RECEIVE matching (Fig. 4).
	RecvChunk int
	// SegGap is the local-time spacing between consecutive segment logs;
	// defaults to 2µs.
	SegGap time.Duration
}

func (c NetConfig) segGap() time.Duration {
	if c.SegGap <= 0 {
		return 2 * time.Microsecond
	}
	return c.SegGap
}

// transit returns how long after the last SEND segment the full message
// arrives at the receiver.
func (c NetConfig) transit(size int64) time.Duration {
	d := c.Latency
	if c.Bandwidth > 0 {
		d += time.Duration(float64(size) / float64(c.Bandwidth) * float64(time.Second))
	}
	return d
}

func splitSize(size int64, chunk int) []int64 {
	if chunk <= 0 || size <= int64(chunk) {
		return []int64{size}
	}
	var parts []int64
	for size > 0 {
		p := int64(chunk)
		if size < p {
			p = size
		}
		parts = append(parts, p)
		size -= p
	}
	return parts
}

type message struct {
	size  int64
	reqID int64
	msgID int64
}

type pendingReader struct {
	ent Entity
	fn  func()
}

// connDir is one direction of a connection.
type connDir struct {
	conn    *Conn
	from    *Node
	to      *Node
	ch      activity.Channel
	pending []message
	readers []pendingReader
}

// Conn is a reliable bidirectional channel between two nodes, identified by
// its 4-tuple — the paper's end-to-end communication channel. Messages per
// direction are delivered in order.
type Conn struct {
	cluster *Cluster
	cfg     NetConfig
	dirs    [2]connDir
}

// Dial opens a connection from node `from` (fresh ephemeral port) to
// `to:toPort`.
func (c *Cluster) Dial(from, to *Node, toPort int, cfg NetConfig) *Conn {
	srcPort := from.AllocPort()
	ab := activity.Channel{Src: from.Endpoint(srcPort), Dst: to.Endpoint(toPort)}
	conn := &Conn{cluster: c, cfg: cfg}
	conn.dirs[0] = connDir{conn: conn, from: from, to: to, ch: ab}
	conn.dirs[1] = connDir{conn: conn, from: to, to: from, ch: ab.Reverse()}
	return conn
}

func (conn *Conn) dirFromNode(n *Node) *connDir {
	if conn.dirs[0].from == n {
		return &conn.dirs[0]
	}
	return &conn.dirs[1]
}

func (conn *Conn) dirToNode(n *Node) *connDir {
	if conn.dirs[0].to == n {
		return &conn.dirs[0]
	}
	return &conn.dirs[1]
}

// Send transmits a logical message of `size` bytes from the given entity
// (which must live on one endpoint's node). The sender's kernel logs one or
// more SEND activities; done (optional) runs once the last segment has been
// logged — the entity's next activity must causally follow it.
func (conn *Conn) Send(from Entity, size int64, reqID int64, done func()) {
	d := conn.dirFromNode(from.Node)
	msgID := conn.cluster.NextMsgID()
	parts := splitSize(size, conn.cfg.MSS)
	gap := conn.cfg.segGap() + from.Node.probeDelay()
	sim := conn.cluster.sim

	for i, p := range parts {
		p := p
		sim.Schedule(time.Duration(i)*gap, func() {
			from.Node.log(activity.Send, from.Ctx, d.ch, p, reqID, msgID)
		})
	}
	lastLog := time.Duration(len(parts)-1) * gap
	if done != nil {
		sim.Schedule(lastLog, done)
	}
	arrival := lastLog + conn.cfg.transit(size)
	sim.Schedule(arrival, func() {
		d.deliver(message{size: size, reqID: reqID, msgID: msgID})
	})
}

// Read registers the entity as the next reader on its side of the
// connection; fn runs after the kernel has logged the RECEIVE activities
// for one full message. Multiple outstanding reads queue FIFO.
func (conn *Conn) Read(reader Entity, fn func()) {
	d := conn.dirToNode(reader.Node)
	if len(d.pending) > 0 {
		m := d.pending[0]
		d.pending = d.pending[1:]
		d.startRead(reader, m, fn)
		return
	}
	d.readers = append(d.readers, pendingReader{ent: reader, fn: fn})
}

func (d *connDir) deliver(m message) {
	if len(d.readers) > 0 {
		r := d.readers[0]
		d.readers = d.readers[1:]
		d.startRead(r.ent, m, r.fn)
		return
	}
	d.pending = append(d.pending, m)
}

// startRead logs the receiver-side RECEIVE segments and then resumes the
// reader. The timestamps are the read time (when the application drains the
// socket), not the wire-arrival time — exactly what a tcp_recvmsg probe
// observes, and the reason queueing for a worker thread shows up inside the
// interaction latency (e.g. httpd2java in §5.4.1).
func (d *connDir) startRead(reader Entity, m message, fn func()) {
	parts := splitSize(m.size, d.conn.cfg.RecvChunk)
	gap := d.conn.cfg.segGap() + reader.Node.probeDelay()
	sim := d.conn.cluster.sim
	for i, p := range parts {
		p := p
		sim.Schedule(time.Duration(i)*gap, func() {
			reader.Node.log(activity.Receive, reader.Ctx, d.ch, p, m.reqID, m.msgID)
		})
	}
	if fn != nil {
		sim.Schedule(time.Duration(len(parts)-1)*gap, fn)
	}
}

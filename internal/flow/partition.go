package flow

import "repro/internal/activity"

// partitionHosts is the batch partition: one scan per host log, then one
// union pass that stitches the per-host forests together.
//
// Why per-host scans compose exactly:
//
//   - Contexts are host-local (a Context carries its host), so epoch and
//     context chains never span hosts: each host's scan owns its
//     contexts completely.
//   - Channels are the only cross-host links. A sequential interning
//     pre-pass gives every connection one dense id (both directions
//     share it) and collects the global sendful bit; each scan maps the
//     ids it touches onto host-local union-find nodes, and the merge
//     pass unions every host's local node for the same id — closing the
//     relation exactly as a single global scan would.
//   - ModeFlow's epoch-break connectivity checks see less in a
//     host-local view than a global scan would mid-flight, but every
//     non-reuse branch unions the fresh epoch with the activity's
//     channel, so wherever the views could disagree both candidate nodes
//     are connected through that channel and the final closure — hence
//     the component sets — is unchanged.
func partitionHosts(byHost map[activity.Sym][]*activity.Activity, hosts []activity.Sym, mode Mode) []Component {
	// Interning pre-pass (sequential): every directed channel gets a
	// dense direction id; the two directions of one connection get
	// dirID and dirID^1, so dirID>>1 is the connection id the union-find
	// shards on, while the sendful bit ("did this direction ever carry a
	// SEND/END?") stays per direction, exactly as the engine's mmap sees
	// it. This is the only pass that hashes Channel structs; the scans
	// work on plain int32 ids. dirIDs is host-major aligned with the
	// logs.
	total := 0
	for _, h := range hosts {
		total += len(byHost[h])
	}
	ids := make(map[activity.ChanKey]int32, total/4)
	var sendful []bool // indexed by direction id
	dirIDs := make(map[activity.Sym][]int32, len(hosts))
	for _, h := range hosts {
		log := byHost[h]
		hostIDs := make([]int32, len(log))
		for j, a := range log {
			id, ok := ids[a.ChanK]
			if !ok {
				if rid, ok := ids[a.ChanK.Reverse()]; ok {
					id = rid ^ 1
				} else {
					id = int32(len(sendful))
					sendful = append(sendful, false, false)
				}
				ids[a.ChanK] = id
			}
			if a.Type == activity.Send || a.Type == activity.End {
				sendful[id] = true
			}
			hostIDs[j] = id
		}
		dirIDs[h] = hostIDs
	}

	// The mode scan per host, over a host-local union-find.
	scans := make([]*hostScan, len(hosts))
	for i := range hosts {
		scans[i] = scanHost(byHost[hosts[i]], dirIDs[hosts[i]], sendful, mode)
	}

	// Merge: one global union-find over the disjoint local forests; every
	// host's local node for the same connection id unions across hosts.
	offsets := make([]int32, len(hosts))
	nodes := int32(0)
	for i, hs := range scans {
		offsets[i] = nodes
		nodes += int32(len(hs.d.parent))
	}
	var d dsu
	d.parent = make([]int32, nodes)
	d.rank = make([]int8, nodes)
	for i, hs := range scans {
		// Graft the local forests: local parent pointers become global
		// parent pointers (ranks carry over — each tree is unchanged).
		off := offsets[i]
		for local, parent := range hs.d.parent {
			d.parent[off+int32(local)] = off + parent
		}
		copy(d.rank[off:], hs.d.rank)
	}
	chanImage := make([]int32, len(sendful)/2) // connection id -> first global node
	for i := range chanImage {
		chanImage[i] = -1
	}
	for i, hs := range scans {
		off := offsets[i]
		for id, local := range hs.chanLocal {
			if local < 0 {
				continue // connection never touched by this host
			}
			if prev := chanImage[id]; prev >= 0 {
				d.union(prev, off+local)
			} else {
				chanImage[id] = off + local
			}
		}
	}

	// Final grouping over the deterministic host-major scan order.
	scan := make([]*activity.Activity, 0, total)
	roots := make([]int32, 0, total)
	for i, h := range hosts {
		hs := scans[i]
		off := offsets[i]
		for j, a := range byHost[h] {
			scan = append(scan, a)
			roots = append(roots, d.find(off+hs.assign[j]))
		}
	}
	return group(scan, func(i int) int32 { return roots[i] })
}

// hostScan is one host's local partition state. chanLocal maps global
// connection ids to this host's local union-find node (-1 = untouched).
type hostScan struct {
	d         dsu
	chanLocal []int32
	assign    []int32
}

// scanHost runs the mode scan over one node log with purely local state.
// dirIDs is the log-aligned direction id per activity (dirID>>1 is the
// connection id); sendful is the global per-direction bit (both
// read-only here).
func scanHost(log []*activity.Activity, dirIDs []int32, sendful []bool, mode Mode) *hostScan {
	hs := &hostScan{chanLocal: make([]int32, len(sendful)/2), assign: make([]int32, len(log))}
	for i := range hs.chanLocal {
		hs.chanLocal[i] = -1
	}
	chNode := func(dirID int32) int32 {
		n := hs.chanLocal[dirID>>1]
		if n < 0 {
			n = hs.d.node()
			hs.chanLocal[dirID>>1] = n
		}
		return n
	}

	switch mode {
	case ModeContext:
		ctxNode := make(map[activity.CtxKey]int32)
		for j, a := range log {
			ch := chNode(dirIDs[j])
			cn, ok := ctxNode[a.CtxK]
			if !ok {
				cn = hs.d.node()
				ctxNode[a.CtxK] = cn
			}
			hs.d.union(cn, ch)
			hs.assign[j] = cn
		}
	default: // ModeFlow
		epoch := make(map[activity.CtxKey]int32)
		for j, a := range log {
			ch := chNode(dirIDs[j])
			var n int32
			switch a.Type {
			case activity.Begin:
				e, ok := epoch[a.CtxK]
				if ok && hs.d.find(e) == hs.d.find(ch) {
					n = e
				} else {
					e = hs.d.node()
					hs.d.union(e, ch)
					epoch[a.CtxK] = e
					n = e
				}
			case activity.Receive:
				e, ok := epoch[a.CtxK]
				switch {
				case ok && hs.d.find(e) == hs.d.find(ch):
					n = e
				case !sendful[dirIDs[j]]:
					// Inert arrival: no SEND exists anywhere on this
					// direction, so file it under its connection and
					// leave the context's epoch untouched.
					n = ch
				default:
					e = hs.d.node()
					hs.d.union(e, ch)
					epoch[a.CtxK] = e
					n = e
				}
			default: // Send, End, MaxType
				e, ok := epoch[a.CtxK]
				if !ok {
					e = hs.d.node()
					epoch[a.CtxK] = e
				}
				hs.d.union(e, ch)
				n = e
			}
			hs.assign[j] = n
		}
	}
	return hs
}

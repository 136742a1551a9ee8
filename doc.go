// Package repro is a from-scratch Go reproduction of "Precise Request
// Tracing and Performance Debugging for Multi-tier Services of Black
// Boxes" (Zhang, Zhihong; Zhan, Jianfeng; Li, Yong; Wang, Lei; Meng, Dan;
// Sang, Bo — DSN 2009): the PreciseTracer system.
//
// The library derives exact per-request causal paths (Component Activity
// Graphs) for multi-tier services treated as black boxes, using only
// application-independent kernel observations: timestamps, end-to-end TCP
// channels and process/thread contexts. On top of the CAGs it implements
// the paper's performance-debugging workflow — causal path patterns,
// average paths, and component latency percentages.
//
// Layout:
//
//	internal/core        Correlator/Session façade (the public entry
//	                     point) and the one streaming correlation engine
//	                     every execution mode is a configuration of
//	internal/flow        shard-key computation: union-find closure over
//	                     TCP channels and context request epochs (the
//	                     engine's same-CAG check, Fig. 3)
//	internal/ranker      candidate selection: sliding window, Rule 1/2,
//	                     is_noise, concurrency-disturbance swap (§4.1, §4.3)
//	                     over ranking keys copied out in blocks
//	internal/engine      CAG construction: mmap/cmap as per-pass ordinal
//	                     tables, n-to-n SEND/RECEIVE merging,
//	                     thread-reuse check (§4.2), vertices carved from
//	                     chunks
//	internal/cag         the CAG abstraction, patterns, aggregation,
//	                     latency breakdown (§3.2)
//	internal/activity    activity model and TCP_TRACE wire formats (§3.1):
//	                     the text log format and the compact binary codec
//	internal/transport   agent→collector network ingestion tier: framed
//	                     binary batches, per-agent sequence/ack resume,
//	                     TCP backpressure (§3.1 deployment)
//	internal/live        online monitor over the CAG stream: interval
//	                     aggregation, baselines, alerts, per-host lag;
//	                     optional bounded-memory sketched accounting
//	internal/sketch      streaming sketches behind the sketched monitor:
//	                     space-saving heavy hitters, Greenwald-Khanna
//	                     quantiles
//	internal/export      export sinks for finished CAGs: OTLP-JSON span
//	                     traces (file or HTTP), Graphviz DOT, canonical
//	                     text dumps
//	internal/cli         flag plumbing shared by the correlating CLIs
//	                     (-workers, -sealafter, -export)
//	internal/analysis    latency percentages, cross-run diffs, automated
//	                     bottleneck detector (§5.4, §7)
//	internal/baseline    naive and WAP5-style comparators (§6)
//	internal/testbed     simulated cluster standing in for the paper's
//	                     SystemTap-instrumented 8-node testbed (§5.1)
//	internal/rubis       the RUBiS-like three-tier workload (§5.1)
//	internal/experiments drivers regenerating every table/figure of §5
//	internal/groundtruth the §5.2 path-accuracy methodology
//
// Binaries: cmd/rubisgen (generate traces), cmd/precisetracer (offline
// correlator CLI), cmd/experiments (regenerate the evaluation),
// cmd/livemon (online monitor over a CorrelateDir replay or a network
// collector), cmd/traceagent (per-host collection agent feeding a
// livemon collector). Runnable walk-throughs live under examples/.
//
// # The streaming pipeline
//
// The paper's correlation algorithm is one pipeline, and this
// reproduction implements it once (core.Session, in
// internal/core/session.go and stream.go). Every execution mode is a
// configuration of the same streaming engine — the online Session pushes
// live records into it, the offline CorrelateTrace/CorrelateDir calls
// replay a recorded input through it (push every activity, close every
// host, drain), and Options.Workers merely bounds how many goroutines
// correlate one batch of sealed components (1 = the sequential
// configuration):
//
//	Push / replay ──> incremental flow partition (flow.Incremental):
//	        each activity joins a component on arrival; components fuse
//	        when a TCP connection or context epoch links them. Where the
//	        online scan lacks global knowledge (a RECEIVE before its
//	        SEND) it unions more, never less — coarser shards stay exact.
//	seal ──> a component seals when no open host can extend it (every
//	        host owning one of its channel endpoints has closed — the
//	        completion watermark), or, with a seal horizon configured,
//	        when it has idled past the largest horizon of the hosts that
//	        could still extend it.
//	correlate ──> at the next barrier (Drain, CloseHost, Close) the
//	        unmodified sequential ranker+engine pass runs over each
//	        sealed component, on up to Options.Workers goroutines — the
//	        shard key guarantees independence, so the paper's algorithm
//	        itself is untouched.
//	emit ──> the watermark emitter keeps finished CAGs in a min-heap
//	        and pops them in deterministic END-timestamp order while
//	        they end below the watermark, holding back any graph that a
//	        still-open stream or a resident BEGIN could yet precede.
//
// # The session front and its barriers
//
// Internally the engine is one stage, the goroutine calling
// Push/Heartbeat/Drain/CloseHost/Close (stage 1), which correlates at
// its barriers:
//
//	stage 1: apply + partition + seal decisions, per push or heartbeat
//	    │ sealed components wait, untouched, for the next barrier
//	    ▼
//	barrier (Drain, CloseHost, Close): ranker+engine per sealed
//	    │ component, by stage 1 and up to Workers−1 helper goroutines
//	    │ started for this batch; results absorbed in creation order
//	    ▼
//	watermark emitter (Drain, Close): ordered CAG release
//
// The ownership contract: every *decision* lives on stage 1, only
// *work* is shared. Stage 1 owns the flow partition and makes every
// seal decision at deterministic points in the event stream; that
// cannot move, because sealing feeds back into partitioning (a sealed
// component is tombstoned, and a straggler touching its tombstone
// detaches as a late link — so *when* a seal happens, in event-stream
// time, shapes how later records partition). A horizon seal therefore
// happens at the push or heartbeat that carries the activity clock past
// the component's deadline, before that record is partitioned, and a
// closure seal at the CloseHost that makes it final — never at a Drain,
// whose cadence is the caller's choice (a wall-clock flush, say). What
// stays batched at the barriers is the correlation: each barrier takes
// every component sealed since the last one, schedules each one's
// flow-bookkeeping prune, and correlates the batch there and then.
// Stage 1 and its helpers take components off the batch through one
// atomic counter, each with its own reusable ranker+engine pair; helpers
// touch only sealed, therefore immutable, components and write only
// their own result slots, and stage 1 waits for them before it absorbs.
// With Workers=1 (or a batch of one) no goroutine starts at all: the
// session is literally the sequential pass, run once per component.
//
// That pass works from contiguous memory. Stage 1 copies records into
// 64 KiB slabs in push order, so one component's records lie scattered
// among every other component's. The ranker therefore copies each
// queue's ranking keys (type, timestamp, size) out of the records in
// blocks of 256 and interns the block on the engine while it is still in
// cache; its rules then read the copies. The engine skips the hash when a
// record repeats the previous one's thread or connection, and carves
// vertices from chunks of 128 that outlive its Reset, one allocation per
// chunk. A graph a sink retains pins its vertices' chunks as it pins its
// records' slab.
//
// Backpressure comes from the same shape. A barrier returns only when
// its batch is correlated, so a caller pushing faster than correlation
// keeps up is held at its next Drain, CloseHost or Close; in a networked
// deployment that holds the ingest goroutine, which through the ingest
// queue holds TCP — the paper's end-to-end flow control, with no queue
// of its own to size. A standing worker pool fed through a queue would
// buy no overlap: Drain and Close must wait for every sealed component
// before they emit, so work handed off between barriers is waited for at
// the next one anyway.
//
// Stage 1's partition is online, which makes the order it is fed part
// of its cost. A RECEIVE that arrives before its SEND cannot be told
// from one whose SEND was never traced, so flow.Incremental files it
// where a later SEND will find it and the components fuse: a bad order
// is answered by over-merging, which is sound (never a split) but, fed
// three independently batching agents, fuses a whole run into one
// component that seals only at Close — no parallelism, no streaming.
// The order, unlike the answer, can be fixed: core.Ingest, the front
// that comes before stage 1 in a networked deployment, holds each
// host's items in a FIFO and applies the globally oldest one only once
// every other open host has shown a timestamp at or past it (ties: host
// name, then per-host order), so stage 1 sees the timestamp merge an
// in-process replay pushes. A host with a seal horizon bounds its peers
// by at most that horizon (the sender-liveness floor the watermark
// already presumes); without one its peers wait for it to speak or
// close. Cross-host clock skew is the caveat: the merge is as good as
// the clocks, and whatever disorder remains still over-merges.
//
// None of this touches emitter determinism. Graph content is fixed at
// seal time (sealed components are immutable, and the ranker+engine
// pass is deterministic per component); emission *order* is fixed by
// the END-timestamp watermark, which counts sealed-but-uncorrelated
// components as pending and so never releases a graph that unfinished
// work could precede. The watermark is the oldest BEGIN buffered in any
// resident component, capped by each open host's push bound: a graph's
// END follows its root BEGIN on the same entry-tier context, so a
// component holding no BEGIN — a never-idle §5.3.3 noise connection,
// say — can yield no graph on its own and holds nothing back. The
// pipeline's only freedom is scheduling — which goroutine correlates
// which shard — and results are absorbed in creation order whatever it
// was, so scheduling is unobservable: the equivalence suites assert
// byte-identical output at every Workers value, plain and under -race.
//
// Sealing is the one rule that decides both latency and safety. Purely
// close-driven sealing (the default) never guesses: nothing is
// correlated while an open stream could still change the decision, which
// makes offline results byte-identical to the historical sequential
// correlator (TestParallelEquivalence, TestParallelSessionEquivalence)
// at every Workers value. A seal horizon (Options.SealAfter, measured in
// activity time, never wall clock) trades that guarantee for liveness: a
// component idle past its horizon is force-sealed (Result.ForcedSeals) by
// the push or heartbeat that ages it so, whatever the Drain cadence;
// quiet open streams bound the watermark by their own horizon, and the
// flow partition's bookkeeping for dispatched components is tombstoned
// then pruned, so a forever-open Session's memory tracks recently-active
// components. With the BEGIN-bounded watermark, graphs leave on the Drain
// cadence rather than at Close. A never-idle component that holds no
// BEGIN rolls: once its oldest record is two horizons old, Drain
// correlates its records older than one horizon as a prefix and keeps
// the rest under the same root, so its resident buffer stays within about
// two horizons of traffic instead of everything since it opened. No later
// graph can reach a rolled record — it would have to join through a
// context or connection the graph already carries, after the graph's
// BEGIN, which the liveness bound places at or above the cut. A straggler
// that violates the horizon's sender-liveness bound becomes a late link
// (Result.LateLinks): detached onto a fresh component — possibly
// splitting its request's CAG — never resurrecting a freed shard.
//
// Horizons are per host (Options.SealAfterByHost): a component inherits
// the largest horizon among the hosts that can still extend it, so one
// chronically lagging agent extends only its own components' deadlines
// while everyone else's still seal on the short default. Session.Heartbeat
// lets an idle-but-healthy agent advance the watermark (and the activity
// clock) without traffic, so long horizons need not delay the ordered
// output stream.
//
// Offline correlation is literally a replay into this engine: the input
// is pushed in order, every host is closed, and — when a horizon is
// configured — the pushes force-seal as a deployment's would, so a
// recorded trace reproduces a continuous deployment's seals and splits.
// The replay drains on a fixed record cadence, which bounds what it holds
// and fixes the one counter the cadence still moves, Result.LateLinks
// (prunes are scheduled at dispatch).
//
// There are no exceptions: even the PaperExactNoise ablation runs this
// engine. The literal Fig. 5 is_noise predicate asks whether a pending
// matching SEND exists anywhere in the window, and the flow partition is
// closed over channels — every SEND that could match a RECEIVE shares its
// Channel and therefore its component — so each shard's own window buffer
// answers the global question exactly (ranker.matchingSendVisible states
// the invariant; a debug assertion and a fuzz test in internal/flow
// enforce it). Exact mode therefore shards, scales with Workers, and
// supports seal horizons and heartbeats like every other mode.
//
// # Deployment
//
// The paper's deployment (§3.1) runs one kernel tracing agent per traced
// host, shipping TCP_TRACE streams to a central correlator. The
// networked shape of that deployment is:
//
//	traceagent (per host) ──TCP──> livemon -listen
//	    │                              │
//	    │ internal/transport.Agent     │ internal/transport.Collector
//	    │   binary batches,            │   per-host resume state,
//	    │   seq/ack, reconnect         │   exactly-once apply
//	    │                              ▼
//	    │                          core.Ingest (serialized front)
//	    │                              │ bounded op queue, then per-host
//	    │                              │ FIFOs merged by timestamp
//	    │                              ▼
//	    └── backpressure ◄──────── core.Session ──> live.Monitor
//
// Records travel as length-prefixed frames of the compact binary codec
// (activity.AppendBinary) with per-agent monotone sequence numbers;
// records and heartbeats share one sequence space. The collector applies
// only items above its per-host high-water mark, so delivery is
// at-least-once on the wire and exactly-once into the session: an agent
// replays its unacked tail after a reconnect, and a restarted agent
// re-offers its whole log (sequences are positional — the applied prefix
// is skipped). Backpressure is TCP itself: when correlation falls behind,
// the Ingest queue fills, collector handlers stop reading their sockets,
// and the agents' bounded unacked windows block the producers. That
// window is a fixed ring and the send batch is reused, so the agent's
// side allocates nothing per record. What shipping still allocates is the
// collector's run slice per frame and decode records that miss the pool
// after a GC (BenchmarkAgentCollectorLoopback gates the total).
//
// Because the session's output depends only on per-host record order —
// which the sequence protocol preserves exactly — a networked run drains
// a sink stream byte-identical to an in-process replay of the same
// logs (TestNetworkedEquivalence), no matter how connections interleave,
// bounce, or resume. What the interleaving does decide is how well the
// run streams: the online partition over-merges whenever a RECEIVE
// reaches it before its SEND, and agents that batch independently make
// that the common case. core.Ingest therefore restores the cross-host
// timestamp order before applying (see "The two-stage session front"):
// it holds what has arrived, per host, and releases the oldest item once
// every other open host has passed it, so a networked run partitions
// into the same components as the in-process replay (Result.Shards is
// asserted equal) and seals and emits continuously instead of at Close.
// The price is that a CLOSE ack now means "received and ordered" — the
// stream is sealed in the session once every peer has passed its end —
// and that a silent host holds its peers' records: for its seal horizon
// when it has one, until it closes otherwise. Ingest.Stats names the
// host the merge is waiting on; livemon prints it beside the per-host
// lag table. Agent death degrades, never corrupts: with seal
// horizons configured, a dead host's components force-seal
// (Result.ForcedSeals), its staleness shows in Monitor.HostLags (the
// Delivered column is raw transport progress, fed by
// core.IngestOptions.OnApplied), and a too-late return is absorbed as
// Result.LateLinks.
//
// # The identity layer
//
// Identities are interned at the decode boundary: both codecs (the text
// parser and the binary decoder) map each record's host, program and IP
// strings to dense symbols in the process-wide interner (activity.Syms).
// A channel is held only in that form — activity.Channel is two
// symbol-and-port endpoints, 16 pointer-free bytes — and its addresses
// are resolved through Syms.Name at the edges (codecs, OTLP, lint). A
// context keeps its strings for the render and report edges next to its
// packed key activity.CtxKey. Everything between decode and CAG emission
// — the flow partition's union-find, the engine's channel and context
// ordinals, the session's per-host state, the live monitor's lag tables —
// keys on those flat integer structs; hashing one is a memhash over a few
// words, and the interner canonicalizes the context strings so a million
// records share one copy of "web1" instead of pinning a million log-line
// buffers.
//
// Only the bounded identity vocabulary is interned, never the unbounded
// tuples: ephemeral ports make the channel space grow with connection
// count, so Channel is a self-contained packed struct (its Reverse is a
// field swap), and a forever-open collector's interner stays
// deployment-sized while flow.Incremental prunes per-channel state.
// Consumers that meet a hand-built record call activity.Bind lazily —
// binding is idempotent — so symbols are consistent process-wide
// regardless of where a record entered. One determinism rule follows:
// symbol numeric order is interning order, an accident of arrival, so
// any output ordering sorts by the interned string (Syms.Name), never by
// symbol value.
//
// # Batched ingest and record ownership
//
// Session.PushBatch feeds a run of records in order as one call — the
// shape a decoded transport frame arrives in — and core.Ingest.PushBatch
// moves a whole frame through the bounded queue as one operation instead
// of one hop per record. Batching changes only the queue traffic: the
// ingest goroutine applies batch records individually with the same
// drain cadence as single pushes, so a batched stream's output stays
// byte-identical to its unbatched equivalent. Errors remain sticky per
// host; the first failure, detected when the ingest goroutine receives
// the batch, rejects the rest of that host's records within it and
// leaves other hosts untouched. The ordering front holds a batch by
// reference — sub-slices of the caller's slice, no per-record copy —
// until its last record has been applied.
//
// # Export & live analytics
//
// Finished CAGs leave the pipeline through one composable contract:
// core.GraphSink. Options.Sinks (and IngestOptions.Sinks for the
// networked front) register any number of sinks on the session's
// emission chain; each finished graph is delivered to every sink, in
// registration order, on the emitter goroutine, in deterministic
// END-timestamp order (core.GraphSinkFunc adapts a plain callback).
// Registering any sink switches the session to streaming: Result.Graphs
// stays empty; core.Collect is the sink that gathers graphs back into a
// slice when a consumer wants both. Ownership
// follows the pooled-record rules above: an emitted graph and its
// vertices are immutable from emission on, so a sink may retain the
// graph but must never mutate it — the underlying Records of a
// networked run return to the activity pool, which is why export sinks
// serialize eagerly in ConsumeGraph instead of deferring to Close.
//
// live.Monitor is itself a GraphSink, and internal/export provides the
// rest: an OTLP-JSON exporter (NDJSON file or batched OTLP/HTTP POST),
// a per-graph Graphviz DOT directory, and a canonical text dumper. Both
// CLIs wire them with -export kind=dest[,kind=dest...] via internal/cli.
// Encoding is append-style: each graph's OTLP-JSON is written straight
// into a buffer the sink reuses (the HTTP exporter batches those bytes,
// not structs, into one fresh buffer per POST, which net/http may still
// read after the call and re-sends on a 307/308), the dump sink does
// the same with cag.AppendDump, and the file sinks write through a
// 64 KiB bufio.Writer that Close flushes, so several graphs share one
// write syscall — a warm file or NDJSON sink allocates nothing per
// graph (BenchmarkExportSinks, gated by make bench-allocs). The
// contract is byte-identity with the encoding/json rendering of the
// OTLP/JSON struct tree and with the fmt dump: export_test.go keeps
// that tree and those fmt renderings as the oracle, and
// TestSinkEncodeMatchesOracle compares every sink's bytes with it,
// including encoding/json's escaping (HTML-safe <, >, &; \b and \f;
// invalid UTF-8 as \ufffd; U+2028/U+2029 escaped).
// The OTLP mapping, one trace per CAG:
//
//	CAG                      OTLP span field
//	vertex                   span; name "TYPE host/program"
//	pattern signature        deterministic traceId (FNV-128a, 32 hex)
//	vertex index             deterministic spanId (FNV-64a, 16 hex)
//	context edge             parentSpanId + attribute cag.parent_edge=ctx
//	message edge             span link (always), and parentSpanId with
//	                         cag.parent_edge=msg when no context parent
//	local timestamp          startTimeUnixNano (raw node-local nanos;
//	                         cross-host skew stays visible, as in
//	                         cag.Timeline); end = latest direct child
//	ctx/chan/size            attributes cag.host, cag.program, cag.pid,
//	                         cag.tid, net.channel, cag.size_bytes
//	root vertex              adds cag.signature, cag.pattern,
//	                         cag.latency_ns, cag.vertices
//	forced seal / late link  span events cag.forced_seal, cag.late_link
//	                         on the root span
//
// The monitor folds each CAG on arrival into one incremental
// analysis.Accumulator per pattern signature for the current interval
// and keeps no graph: its per-interval state grows with the patterns an
// interval sees, not with its traffic. The default (exact) mode tracks
// every pattern and is checked against an oracle that keeps the
// interval's graphs and runs cag.Aggregate at close
// (TestMonitorMatchesOracle, FuzzMonitorMatchesOracle).
// live.Config.Sketched bounds the pattern count too: a space-saving
// sketch (sketch.TopK) tracks the top MaxPatterns signatures per
// interval (error ≤ N/MaxPatterns, heavy hitters never lost), baselines
// are evicted least-recently-seen beyond 2×MaxPatterns, and lifetime
// latency/share distributions ride Greenwald-Khanna quantile sketches
// (sketch.Quantile, rank error ≤ εN) surfaced by Monitor.QuantileTable.
// Interval request counts and mean latency stay exact scalars in either
// mode. With capacity to spare the sketched output is byte-identical to
// exact mode (TestMonitorSketchedMatchesExact); under pressure it
// degrades only the per-pattern view, within the sketch bounds, and
// Monitor.Footprint exposes the state sizes the capacity soak gate
// (TestMonitorSketchedCapacity) holds flat.
//
// Ownership is part of the contract. The collector decodes every frame
// into pooled records (activity.NewRecord), the session copies whatever
// it keeps at apply time, and IngestOptions.Release — wired to
// activity.ReleaseRecord in the networked deployment — returns each
// batch record to the pool exactly once, when the ingest goroutine is
// done with it: applied (possibly many operations after it arrived — the
// ordering front holds it until its peers catch up), rejected at
// receipt, or flushed by Close. A PushBatch caller owns neither the
// slice nor the records after the call succeeds; single-record Push
// callers keep ownership of theirs (Ingest.Push copies).
package repro

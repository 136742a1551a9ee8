// Package live turns the offline analysis of §5.4 into an online monitor:
// finished CAGs stream in (the Monitor is a core.GraphSink — register it
// in core.Options.Sinks or IngestOptions.Sinks), are bucketed into fixed
// wall-of-virtual-time intervals per causal path pattern, and each
// closed interval is compared against a rolling baseline with the
// §5.4-style detector. The paper runs its experiments offline but motivates
// the tool for production systems ("the low overhead and tolerance of
// noise make PreciseTracer a promising tracing tool for using on
// production systems"); this package is that deployment mode.
//
// Each CAG is folded on arrival into its pattern's analysis.Accumulator
// for the current interval and is never retained: per-interval state is
// one accumulator per pattern seen, whatever the traffic. Exact mode
// (the default) tracks every pattern; the tests check it against an
// oracle that keeps the interval's graphs and runs cag.Aggregate at
// close. Config.Sketched
// bounds the pattern count too: frequencies ride a space-saving heavy-
// hitter sketch of Config.MaxPatterns counters (internal/sketch), an
// evicted pattern's accumulator is dropped with it, and lifetime
// latency/share quantiles ride Greenwald-Khanna sketches. With capacity
// to spare the sketched output is byte-identical to exact mode (the
// equivalence tests pin this); under overload it degrades to the
// sketch's documented error bounds instead of growing.
package live

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
	"repro/internal/analysis"
	"repro/internal/cag"
	"repro/internal/sketch"
)

// Alert is one detector finding raised for a closed interval.
type Alert struct {
	Interval  int
	Start     time.Duration
	Pattern   string
	Finding   analysis.Finding
	Requests  int
	MeanLat   time.Duration
	BaseLat   time.Duration
	LatFactor float64
}

// String implements fmt.Stringer.
func (a Alert) String() string {
	return fmt.Sprintf("interval %d (t=%v) pattern %q: %s [mean %v vs baseline %v]",
		a.Interval, a.Start, a.Pattern, a.Finding.Reason,
		a.MeanLat.Round(time.Microsecond), a.BaseLat.Round(time.Microsecond))
}

// Config parametrises a Monitor.
type Config struct {
	// Interval is the aggregation bucket width in trace (node-local
	// first-tier) time. Default 10s.
	Interval time.Duration
	// BaselineIntervals is how many leading healthy intervals form the
	// reference average path per pattern. Default 3.
	BaselineIntervals int
	// Detector thresholds; zero value uses analysis defaults.
	Detector analysis.Detector
	// MinRequests suppresses alerts for intervals with fewer requests of a
	// pattern than this (unstable percentages). Default 10.
	MinRequests int
	// OnAlert, when set, receives alerts as intervals close.
	OnAlert func(Alert)

	// Sketched bounds the per-interval pattern accounting: at most
	// MaxPatterns pattern signatures are tracked per interval (space-
	// saving heavy hitters), and lifetime latency/share quantiles
	// (QuantileTable) ride fixed-size Greenwald-Khanna sketches. False
	// (the default) tracks every pattern an interval sees, exactly, and
	// keeps no quantiles; its baselines and category-name cache grow
	// with the pattern and program vocabulary, not the traffic. Both modes fold each CAG into per-pattern
	// accumulators on arrival and retain no graph.
	Sketched bool
	// MaxPatterns caps the signatures tracked per interval and the
	// categories tracked by the lifetime share quantiles in sketched
	// mode; baselines are bounded at 2×MaxPatterns by least-recently-seen
	// eviction. Default 64. Ignored when Sketched is false.
	MaxPatterns int
	// QuantileEpsilon is the rank-error fraction of the lifetime quantile
	// sketches (sketched mode). Default 0.01 — p99 answers are within one
	// percentile of exact. Ignored when Sketched is false.
	QuantileEpsilon float64
}

// bucket is one interval's accounting: one incremental accumulator per
// tracked pattern signature. Sketched mode bounds the tracked set with a
// heavy-hitter sketch whose keys are exactly accs' keys; exact mode
// tracks every signature. reqs/latSum stay exact scalars, so interval
// totals (Requests, MeanLatency) never degrade with eviction.
type bucket struct {
	start  time.Duration
	top    *sketch.TopK // nil in exact mode
	accs   map[string]*analysis.Accumulator
	reqs   int
	latSum time.Duration
}

// catSum is one category's critical-path total within one graph.
type catSum struct {
	cat string
	d   time.Duration
}

// IntervalStat summarises one closed interval for dashboards.
type IntervalStat struct {
	Index    int
	Start    time.Duration
	Requests int
	// MeanLatency averages across all patterns in the interval.
	MeanLatency time.Duration
	// TopPattern is the most frequent pattern name.
	TopPattern string
	Alerts     int
	// SkippedEmpty is how many empty intervals were skipped between the
	// previously closed interval and this one: a quiet gap closes no
	// per-interval state and appends no history rows (a multi-hour lull
	// at a 1s interval must not spin thousands of closes) — the covered
	// span is recorded here instead.
	SkippedEmpty int
}

type patternBaseline struct {
	report    *analysis.PatternReport
	intervals int
	// lastSeen is the interval index this pattern last reported — the
	// recency key sketched mode's baseline eviction uses.
	lastSeen int
}

// Monitor ingests CAGs and raises alerts.
type Monitor struct {
	cfg        Config
	cur        *bucket
	index      int
	baselines  map[string]*patternBaseline
	alerts     []Alert
	intervals  int
	ingested   int
	history    []IntervalStat
	lastEnd    time.Duration
	outOfOrder int

	pendingSkipped int // empty intervals skipped since the last close
	skippedEmpty   int // total empty intervals skipped over all gaps

	// hostNewest tracks, per traced host, the newest record timestamp seen
	// in any ingested CAG; newest is the global maximum. Their difference
	// is the per-host lag a deployment tunes per-host seal horizons
	// (core.Options.SealAfterByHost) and heartbeat cadence against.
	// Keyed by interned host symbol — this table is touched for every
	// vertex of every ingested CAG; names are resolved only when a lag
	// table is rendered.
	hostNewest map[activity.Sym]time.Duration
	newest     time.Duration

	// delivered tracks, per host, the newest record or heartbeat timestamp
	// the transport tier has applied — raw agent progress, ahead of (and
	// independent from) what correlation has released into CAGs. The gap
	// between Delivered and Newest is work in flight; a Delivered that
	// stops advancing is a dead or disconnected agent.
	delivered    map[activity.Sym]time.Duration
	deliveredAny bool

	// Ingest scratch, reused across graphs: the signature is appended into
	// sig and looked up without a string conversion, category names are
	// cached per bound (from, to) program pair, and cats sums one graph's
	// critical path per category. The name cache grows with the program
	// vocabulary, like the baselines; sketched mode starts it over past
	// 4×MaxPatterns pairs so it stays capacity-bounded.
	sig      []byte
	catNames map[[2]activity.Sym]string
	cats     []catSum

	// Lifetime quantile sketches (sketched mode only): end-to-end latency
	// over every ingested CAG, and per-category latency-share percentages
	// bounded by a heavy-hitter sketch over category names (an evicted
	// category's sketch is dropped with it).
	latQ     *sketch.Quantile
	shareTop *sketch.TopK
	shareQ   map[string]*sketch.Quantile
}

// HostLag is one host's staleness as observed through the CAG stream:
// how far its newest contributed record trails the newest record from any
// host. A chronically large lag identifies the agent that needs a longer
// per-host seal horizon (or a fix).
type HostLag struct {
	Host   string
	Newest time.Duration
	Lag    time.Duration
	// Delivered is the newest timestamp the ingestion tier reported for
	// this host via ObserveDelivery; zero when deliveries are not being
	// observed (offline replay).
	Delivered time.Duration
}

// NewMonitor returns a monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.BaselineIntervals <= 0 {
		cfg.BaselineIntervals = 3
	}
	if cfg.MinRequests <= 0 {
		cfg.MinRequests = 10
	}
	if cfg.MaxPatterns <= 0 {
		cfg.MaxPatterns = 64
	}
	if cfg.QuantileEpsilon <= 0 {
		cfg.QuantileEpsilon = 0.01
	}
	m := &Monitor{
		cfg:        cfg,
		baselines:  make(map[string]*patternBaseline),
		hostNewest: make(map[activity.Sym]time.Duration),
		delivered:  make(map[activity.Sym]time.Duration),
		catNames:   make(map[[2]activity.Sym]string),
	}
	if cfg.Sketched {
		m.latQ = sketch.NewQuantile(cfg.QuantileEpsilon)
		m.shareTop = sketch.NewTopK(cfg.MaxPatterns)
		m.shareQ = make(map[string]*sketch.Quantile, cfg.MaxPatterns)
	}
	return m
}

// Ingest adds one finished CAG. CAGs must arrive in non-decreasing
// completion (END timestamp) order — the contract both the sequential
// engine and the sharded watermark emitters guarantee. A regressing END
// lands in the current interval (its own interval already closed) and is
// counted in OutOfOrder so feeders can surface the violation.
func (m *Monitor) Ingest(g *cag.Graph) {
	end := g.End()
	if end == nil {
		return
	}
	t := end.Timestamp
	if m.ingested > 0 && t < m.lastEnd {
		m.outOfOrder++
	} else {
		m.lastEnd = t
	}
	// Buckets start at multiples of Interval, rounded down: Go's %
	// truncates toward zero, so a negative t needs the correction.
	start := t - t%m.cfg.Interval
	if start > t {
		start -= m.cfg.Interval
	}
	if m.cur == nil {
		m.cur = m.newBucket(start)
	}
	if t >= m.cur.start+m.cfg.Interval {
		// Close the current interval once, then jump straight to the
		// bucket containing t: the empty intervals in between are counted
		// (next IntervalStat.SkippedEmpty), never individually closed — a
		// multi-hour quiet spell at a 1s interval must not spin thousands
		// of closeInterval calls and bloat the history.
		m.closeInterval()
		if next := m.cur.start + m.cfg.Interval; start > next {
			skipped := int((start - next) / m.cfg.Interval)
			m.pendingSkipped += skipped
			m.skippedEmpty += skipped
		}
		m.cur = m.newBucket(start)
	}
	m.observe(g, end)
	m.ingested++
	for i := 0; i < g.Len(); i++ {
		v := g.Vertex(i)
		// Records arriving through the session are bound; a hand-built
		// vertex's unbound record falls back to interning its host name.
		sym := v.CtxK.Host
		if sym == 0 {
			sym = activity.Syms.Intern(v.Ctx.Host)
		}
		if v.Timestamp > m.hostNewest[sym] || m.hostNewest[sym] == 0 {
			m.hostNewest[sym] = v.Timestamp
		}
		if v.Timestamp > m.newest {
			m.newest = v.Timestamp
		}
	}
}

// ConsumeGraph implements core.GraphSink: the monitor plugs directly
// into a session's emission chain (core.Options.Sinks or
// core.IngestOptions.Sinks) with no adapter closure.
func (m *Monitor) ConsumeGraph(g *cag.Graph) { m.Ingest(g) }

// newBucket opens one interval's state in the configured mode.
func (m *Monitor) newBucket(start time.Duration) *bucket {
	b := &bucket{start: start, accs: make(map[string]*analysis.Accumulator)}
	if m.cfg.Sketched {
		b.top = sketch.NewTopK(m.cfg.MaxPatterns)
	}
	return b
}

// observe folds one CAG into the current interval's accumulator for its
// pattern and, in sketched mode, the lifetime quantile sketches. The
// graph itself is not retained, and a pattern already tracked in the
// interval costs no allocation.
func (m *Monitor) observe(g *cag.Graph, end *cag.Vertex) {
	b := m.cur
	m.sig = cag.AppendSignature(m.sig[:0], g)
	acc := b.accs[string(m.sig)]
	if acc == nil {
		acc = analysis.NewAccumulator(cag.PatternName(g), string(m.sig))
		b.accs[acc.Signature] = acc
	}
	if b.top != nil {
		if evicted, ok := b.top.Observe(acc.Signature); ok {
			delete(b.accs, evicted)
		}
	}
	// Sum the critical path per category, walking it END-first.
	m.cats = m.cats[:0]
	for v, p := end, end.PathParent(); p != nil; v, p = p, p.PathParent() {
		m.addCat(m.category(p, v), v.Timestamp-p.Timestamp)
	}
	lat := g.Latency()
	acc.Observe(lat)
	for _, c := range m.cats {
		acc.Add(c.cat, c.d)
	}
	b.reqs++
	b.latSum += lat

	if m.latQ == nil {
		return
	}
	m.latQ.Observe(float64(lat))
	if lat <= 0 {
		return
	}
	// Sorted category order keeps the share sketches' eviction
	// deterministic for identical streams.
	slices.SortFunc(m.cats, func(x, y catSum) int { return strings.Compare(x.cat, y.cat) })
	for _, c := range m.cats {
		if evicted, ok := m.shareTop.Observe(c.cat); ok {
			delete(m.shareQ, evicted)
		}
		q := m.shareQ[c.cat]
		if q == nil {
			q = sketch.NewQuantile(m.cfg.QuantileEpsilon)
			m.shareQ[c.cat] = q
		}
		q.Observe(100 * float64(c.d) / float64(lat))
	}
}

// addCat adds one hop's latency to its category in m.cats.
func (m *Monitor) addCat(cat string, d time.Duration) {
	for i := range m.cats {
		if m.cats[i].cat == cat {
			m.cats[i].d += d
			return
		}
	}
	m.cats = append(m.cats, catSum{cat: cat, d: d})
}

// category is cag.CategoryName(from, to), cached per bound program pair
// so the hot path builds no string; a hand-built (unbound) vertex falls
// back to building it.
func (m *Monitor) category(from, to *cag.Vertex) string {
	if !from.CtxK.Bound() || !to.CtxK.Bound() {
		return cag.CategoryName(from, to)
	}
	k := [2]activity.Sym{from.CtxK.Prog, to.CtxK.Prog}
	c, ok := m.catNames[k]
	if !ok {
		if m.cfg.Sketched && len(m.catNames) >= 4*m.cfg.MaxPatterns {
			clear(m.catNames)
		}
		c = cag.CategoryName(from, to)
		m.catNames[k] = c
	}
	return c
}

// ObserveDelivery records transport-level progress for one host: the
// ingestion tier applied a record or heartbeat with timestamp ts. Like
// Ingest it must be called from the monitor's single feeding goroutine
// (core.IngestOptions.OnApplied runs on the same goroutine as the
// session's sinks, so wiring both to one Monitor is safe).
func (m *Monitor) ObserveDelivery(host string, ts time.Duration) {
	m.deliveredAny = true
	sym := activity.Syms.Intern(host)
	if ts > m.delivered[sym] {
		m.delivered[sym] = ts
	}
}

// HostLags returns every host's staleness relative to the newest record
// observed from any host, laggiest first (ties broken by host name). The
// Newest/Lag view is per ingested CAG records, so it reflects what
// correlation has released, not raw agent deliveries — a host that only
// appears in still-pending components will look stale until its
// components seal. Delivered (when fed via ObserveDelivery) is the raw
// transport-side progress; a host that has delivered but not yet
// contributed to any released CAG appears with Newest zero and the full
// lag.
func (m *Monitor) HostLags() []HostLag {
	hosts := make(map[activity.Sym]bool, len(m.hostNewest)+len(m.delivered))
	for h := range m.hostNewest {
		hosts[h] = true
	}
	for h := range m.delivered {
		hosts[h] = true
	}
	out := make([]HostLag, 0, len(hosts))
	for h := range hosts {
		ts := m.hostNewest[h]
		out = append(out, HostLag{
			Host:      activity.Syms.Name(h),
			Newest:    ts,
			Lag:       m.newest - ts,
			Delivered: m.delivered[h],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lag != out[j].Lag {
			return out[i].Lag > out[j].Lag
		}
		return out[i].Host < out[j].Host
	})
	return out
}

// HostLagTable renders the per-host lag view for terminal output. The
// delivered column appears only when the ingestion tier reports
// deliveries (networked mode); offline replay keeps the compact form.
func (m *Monitor) HostLagTable() string {
	lags := m.HostLags()
	if len(lags) == 0 {
		return ""
	}
	var b strings.Builder
	if !m.deliveredAny {
		fmt.Fprintf(&b, "%-12s %12s %12s\n", "host", "newest", "lag")
		for _, l := range lags {
			fmt.Fprintf(&b, "%-12s %12v %12v\n", l.Host, l.Newest, l.Lag)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %12s %12s %12s\n", "host", "newest", "lag", "delivered")
	for _, l := range lags {
		fmt.Fprintf(&b, "%-12s %12v %12v %12v\n", l.Host, l.Newest, l.Lag, l.Delivered)
	}
	return b.String()
}

// Flush closes the current interval (end of stream). A current bucket is
// closed even when it holds no graphs — consistent with the gap handling
// in Ingest — so Intervals() and History() agree with the span the
// monitor actually covered instead of silently dropping a trailing
// quiet interval.
func (m *Monitor) Flush() {
	if m.cur != nil {
		m.closeInterval()
	}
	m.cur = nil
}

// closeInterval closes the current interval: totals from the exact
// scalars, and the detector on each tracked signature's report, in
// signature order.
func (m *Monitor) closeInterval() {
	b := m.cur
	stat := IntervalStat{Index: m.index, Start: b.start, SkippedEmpty: m.pendingSkipped, Requests: b.reqs}
	m.pendingSkipped = 0
	alertsBefore := len(m.alerts)
	if b.reqs > 0 {
		stat.MeanLatency = b.latSum / time.Duration(b.reqs)
	}
	sigs := make([]string, 0, len(b.accs))
	for sig := range b.accs {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	// TopPattern is the most frequent pattern, ties to the smallest
	// signature (map order would flip it run to run). Sketched mode takes
	// the heavy-hitter ranking, which orders the same way and has the
	// same winner while capacity suffices.
	if b.top != nil {
		if items := b.top.Items(); len(items) > 0 {
			stat.TopPattern = b.accs[items[0].Key].Name
		}
	} else {
		top := 0
		for _, sig := range sigs {
			if acc := b.accs[sig]; acc.Count() > top {
				top, stat.TopPattern = acc.Count(), acc.Name
			}
		}
	}
	for _, sig := range sigs {
		if acc := b.accs[sig]; acc.Count() >= m.cfg.MinRequests {
			m.diagnose(sig, acc.Report(), acc.Count())
		}
	}
	m.evictBaselines()
	stat.Alerts = len(m.alerts) - alertsBefore
	m.history = append(m.history, stat)
	m.index++
	m.intervals++
}

// diagnose compares one pattern's interval report against its rolling
// baseline, blending while the baseline is still building and raising
// alerts afterwards — the per-pattern tail both close paths share.
func (m *Monitor) diagnose(sig string, rep *analysis.PatternReport, requests int) {
	base := m.baselines[sig]
	if base == nil || base.intervals < m.cfg.BaselineIntervals {
		// Still building the healthy reference: blend intervals.
		if base == nil {
			m.baselines[sig] = &patternBaseline{report: rep, intervals: 1, lastSeen: m.index}
		} else {
			base.report = blend(base.report, rep, base.intervals)
			base.intervals++
			base.lastSeen = m.index
		}
		return
	}
	base.lastSeen = m.index
	findings := m.cfg.Detector.Diagnose(base.report, rep)
	for _, f := range findings {
		a := Alert{
			Interval: m.index,
			Start:    m.cur.start,
			Pattern:  rep.Name,
			Finding:  f,
			Requests: requests,
			MeanLat:  rep.MeanLatency,
			BaseLat:  base.report.MeanLatency,
		}
		if base.report.MeanLatency > 0 {
			a.LatFactor = float64(rep.MeanLatency) / float64(base.report.MeanLatency)
		}
		m.alerts = append(m.alerts, a)
		if m.cfg.OnAlert != nil {
			m.cfg.OnAlert(a)
		}
	}
}

// evictBaselines bounds the baseline table in sketched mode: beyond
// 2×MaxPatterns entries, the least-recently-reporting patterns are
// dropped (ties broken by signature for determinism). Exact mode never
// evicts — its baseline set grows with the pattern vocabulary.
func (m *Monitor) evictBaselines() {
	limit := 2 * m.cfg.MaxPatterns
	if !m.cfg.Sketched || len(m.baselines) <= limit {
		return
	}
	type cand struct {
		sig  string
		seen int
	}
	cands := make([]cand, 0, len(m.baselines))
	for sig, b := range m.baselines {
		cands = append(cands, cand{sig: sig, seen: b.lastSeen})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].seen != cands[j].seen {
			return cands[i].seen < cands[j].seen
		}
		return cands[i].sig < cands[j].sig
	})
	excess := len(m.baselines) - limit
	for _, c := range cands[:excess] {
		delete(m.baselines, c.sig)
	}
}

// blend averages a new interval report into the accumulating baseline
// (weighted by the number of intervals already blended).
func blend(base, next *analysis.PatternReport, weight int) *analysis.PatternReport {
	w := float64(weight)
	out := &analysis.PatternReport{
		Name: base.Name, Signature: base.Signature,
		Count:       base.Count + next.Count,
		MeanLatency: time.Duration((float64(base.MeanLatency)*w + float64(next.MeanLatency)) / (w + 1)),
	}
	byCat := make(map[string]analysis.ComponentShare)
	for _, s := range base.Shares {
		byCat[s.Category] = s
	}
	for _, s := range next.Shares {
		if b, ok := byCat[s.Category]; ok {
			byCat[s.Category] = analysis.ComponentShare{
				Category: s.Category,
				Mean:     time.Duration((float64(b.Mean)*w + float64(s.Mean)) / (w + 1)),
				Percent:  (b.Percent*w + s.Percent) / (w + 1),
			}
		} else {
			byCat[s.Category] = s
		}
	}
	cats := make([]string, 0, len(byCat))
	for c := range byCat {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		out.Shares = append(out.Shares, byCat[c])
	}
	return out
}

// Stats is one consistent snapshot of the monitor's counters — the
// single accessor replacing the former per-scalar getters. The slices
// are copies: callers may retain or mutate them without observing later
// appends or corrupting monitor state.
type Stats struct {
	// Ingested is the number of CAGs consumed.
	Ingested int
	// Intervals is the number of closed (non-empty or trailing)
	// intervals; empty gap intervals are skipped, not closed.
	Intervals int
	// SkippedEmpty is the total number of empty intervals skipped over
	// quiet gaps. Intervals + SkippedEmpty is the full span covered
	// between the first ingested CAG and the last closed interval.
	SkippedEmpty int
	// OutOfOrder is how many ingested CAGs violated the non-decreasing
	// END-timestamp contract. Non-zero means the feeding correlator broke
	// its emission-order guarantee (or streams were mixed); interval
	// statistics near the violations are suspect.
	OutOfOrder int
	// Alerts holds every alert raised so far, in raise order.
	Alerts []Alert
	// History holds per-interval statistics in close order.
	History []IntervalStat
}

// Stats returns a snapshot of the monitor's counters, alerts and
// interval history. The contained slices are copies.
func (m *Monitor) Stats() Stats {
	return Stats{
		Ingested:     m.ingested,
		Intervals:    m.intervals,
		SkippedEmpty: m.skippedEmpty,
		OutOfOrder:   m.outOfOrder,
		Alerts:       append([]Alert(nil), m.alerts...),
		History:      append([]IntervalStat(nil), m.history...),
	}
}

// QuantileTable renders the lifetime latency and per-category share
// quantiles (sketched mode; empty otherwise). Latency rows are the
// end-to-end distribution over every ingested CAG; category rows are
// the distribution of that category's critical-path share percentage
// per request.
func (m *Monitor) QuantileTable() string {
	if m.latQ == nil || m.latQ.N() == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %12s %12s %12s\n", "quantity", "p50", "p90", "p99")
	q := func(phi float64) time.Duration {
		return time.Duration(m.latQ.Query(phi)).Round(time.Microsecond)
	}
	fmt.Fprintf(&b, "%-16s %12v %12v %12v\n", "latency", q(0.5), q(0.9), q(0.99))
	cats := make([]string, 0, len(m.shareQ))
	for c := range m.shareQ {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	for _, c := range cats {
		sq := m.shareQ[c]
		fmt.Fprintf(&b, "%-16s %11.1f%% %11.1f%% %11.1f%%\n",
			c, sq.Query(0.5), sq.Query(0.9), sq.Query(0.99))
	}
	return b.String()
}

// HistoryTable renders the interval history for terminal output.
func (m *Monitor) HistoryTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-10s %8s %12s %7s %7s  %s\n", "intvl", "start", "requests", "mean_lat", "alerts", "gap", "top_pattern")
	for _, st := range m.history {
		fmt.Fprintf(&b, "%-5d %-10v %8d %12v %7d %7d  %s\n",
			st.Index, st.Start, st.Requests, st.MeanLatency.Round(time.Microsecond), st.Alerts, st.SkippedEmpty, st.TopPattern)
	}
	return b.String()
}

// Summary renders a short textual report.
func (m *Monitor) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live monitor: %d CAGs over %d intervals, %d alerts\n",
		m.ingested, m.intervals, len(m.alerts))
	if m.skippedEmpty > 0 {
		fmt.Fprintf(&b, "  (%d empty intervals skipped over quiet gaps)\n", m.skippedEmpty)
	}
	for _, a := range m.alerts {
		fmt.Fprintf(&b, "  %s\n", a)
	}
	return b.String()
}

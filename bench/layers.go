package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/ranker"
	"repro/internal/rubis"
)

// isolated times the layers a pass cannot see into by calling their
// public functions alone, on the workload's own trace. The figures are
// per record (or per graph) and single-threaded.
type isolated struct {
	encodeNs, decodeNs, parseNs float64 // activity codecs, per record
	wireBytes                   float64 // binary encoding, per record
	flowAddNs                   float64 // flow.Incremental.Add, per activity
	rankNs, handleNs            float64 // ranker.Rank / engine.Handle, per activity
	signatureUs                 float64 // cag.Signature, per graph
	verticesPerGraph            float64
}

// thrice runs f three times, collecting garbage before each so that one
// run's is not collected inside the next, and returns the element-wise
// median of what f returned: a single timing of these loops moves by a
// factor of two on a shared two-core host.
func thrice(f func() ([]float64, error)) ([]float64, error) {
	var runs [3][]float64
	for i := range runs {
		runtime.GC()
		var err error
		if runs[i], err = f(); err != nil {
			return nil, err
		}
	}
	med := make([]float64, len(runs[0]))
	for k := range med {
		three := []float64{runs[0][k], runs[1][k], runs[2][k]}
		sort.Float64s(three)
		med[k] = three[1]
	}
	return med, nil
}

func measureIsolated(w *workload, in *input) (isolated, error) {
	var iso isolated
	n := float64(len(in.trace))

	// Binary codec: AppendBinary into one buffer, DecodeBinaryInto a pooled
	// record — the agent's and the collector's per-record work.
	offsets := make([]int, len(in.trace)+1)
	enc := make([]byte, 0, 96*len(in.trace)) // roomy: growing it would be timed as encoding
	t, err := thrice(func() ([]float64, error) {
		enc = enc[:0]
		start := time.Now()
		for i, a := range in.trace {
			offsets[i] = len(enc)
			enc = activity.AppendBinary(enc, a)
		}
		return []float64{float64(time.Since(start)) / n}, nil
	})
	if err != nil {
		return iso, err
	}
	iso.encodeNs = t[0]
	offsets[len(in.trace)] = len(enc)
	iso.wireBytes = float64(len(enc)) / n

	t, err = thrice(func() ([]float64, error) {
		rec := activity.NewRecord()
		defer activity.ReleaseRecord(rec)
		start := time.Now()
		for i := range in.trace {
			if _, err := activity.DecodeBinaryInto(rec, enc[offsets[i]:offsets[i+1]]); err != nil {
				return nil, fmt.Errorf("isolated decode %d: %w", i, err)
			}
		}
		return []float64{float64(time.Since(start)) / n}, nil
	})
	if err != nil {
		return iso, err
	}
	iso.decodeNs = t[0]

	// Text codec. No workload reads text yet; recorded so that a
	// file-replay workload can be added against a known figure.
	lines := make([]string, len(in.trace))
	for i, a := range in.trace {
		lines[i] = activity.FormatRecord(a, true)
	}
	t, err = thrice(func() ([]float64, error) {
		start := time.Now()
		for i, line := range lines {
			if _, err := activity.ParseRecord(line); err != nil {
				return nil, fmt.Errorf("isolated parse %d: %w", i, err)
			}
		}
		return []float64{float64(time.Since(start)) / n}, nil
	})
	if err != nil {
		return iso, err
	}
	iso.parseNs = t[0]

	// The partition share of Push: flow.Incremental.Add over the
	// classified trace. The copies keep the set-up's records raw.
	cls := activity.NewClassifier(rubis.EntryPort)
	slab := make([]activity.Activity, len(in.trace))
	classified := make([]*activity.Activity, len(in.trace))
	for i, a := range in.trace {
		slab[i] = *a
		slab[i].Type = cls.Classify(a)
		activity.Bind(&slab[i])
		classified[i] = &slab[i]
	}
	t, _ = thrice(func() ([]float64, error) {
		inc := flow.NewIncremental(flow.ModeFlow, nil)
		start := time.Now()
		for _, a := range classified {
			inc.Add(a)
		}
		return []float64{float64(time.Since(start)) / n}, nil
	})
	iso.flowAddNs = t[0]

	// One ranker and one engine over the whole trace split by host, with
	// a timer around every call: the paper's sequential correlator.
	byHost := ranker.SplitByHost(classified)
	t, err = thrice(func() ([]float64, error) {
		sources := make([]ranker.Source, 0, len(in.hosts))
		for _, h := range in.hosts {
			sources = append(sources, ranker.NewSliceSource(h, byHost[h]))
		}
		eng := engine.New()
		rk := ranker.New(ranker.Config{Window: w.options(in).Window, IPToHost: in.ipToHost}, eng, sources)
		var rankNs, handleNs time.Duration
		for {
			t0 := time.Now()
			a := rk.Rank()
			t1 := time.Now()
			rankNs += t1.Sub(t0)
			if a == nil {
				break
			}
			eng.Handle(a)
			handleNs += time.Since(t1)
		}
		graphs := eng.Outputs()
		if len(graphs) == 0 {
			return nil, fmt.Errorf("isolated ranker+engine pass finished no graph")
		}
		vertices := 0
		start := time.Now()
		for _, g := range graphs {
			cag.Signature(g)
			vertices += g.Len()
		}
		signatureUs := float64(time.Since(start)) / 1e3 / float64(len(graphs))
		return []float64{float64(rankNs) / n, float64(handleNs) / n, signatureUs, float64(vertices) / float64(len(graphs))}, nil
	})
	if err != nil {
		return iso, err
	}
	iso.rankNs, iso.handleNs, iso.signatureUs, iso.verticesPerGraph = t[0], t[1], t[2], t[3]
	return iso, nil
}

// layerMetrics assembles a round's per-layer metrics from the traced pass
// tp, the isolated timings and the round's untraced passes. The values
// carry no unit here: the perLayer table supplies it, and a layer the
// workload bypasses, having done no work, reads 0.
func layerMetrics(w *workload, tp *pass, iso isolated, timed *series) map[string]sample {
	n := float64(len(tp.in.trace))
	drive, ingest := tp.drive.totals(), tp.ingest.totals()
	emitter := drive // the goroutine the sinks ran on
	if w.wire {
		emitter = ingest
	}
	graphs := float64(max(1, tp.sink.v.graphs))
	perGraphUs := func(name spanName) float64 {
		if emitter.count[name] == 0 {
			return 0
		}
		return float64(emitter.total[name]) / 1e3 / float64(emitter.count[name])
	}
	sinkNs := emitter.total[spSinkOTLP] + emitter.total[spSinkLive] + emitter.total[spSinkDump]
	medianWall := summarize(timed.wall, "").Value
	medianCPU := summarize(timed.cpu, "").Value

	got := map[string]sample{
		"activity.encode_bin_ns_per_rec": single(iso.encodeNs),
		"activity.decode_bin_ns_per_rec": single(iso.decodeNs),
		"activity.wire_b_per_rec":        single(iso.wireBytes),
		"activity.parse_text_ns_per_rec": single(iso.parseNs),

		"transport.record_block_ms": single(float64(drive.total[spRecord]) / 1e6),
		"transport.disconnects":     single(float64(tp.disconnects)),

		"core.push_ns_per_act": single(float64(drive.total[spPush]) / n),
		"flow.add_ns_per_act":  single(iso.flowAddNs),
		"core.tick_ns_per_act": single(float64(drive.self[spDrain]) / n),
		"core.ticks":           single(float64(drive.count[spDrain])),
		"core.close_ms":        single(float64(drive.self[spCloseHost]+drive.self[spClose]) / 1e6),

		"core.shards":                 single(float64(tp.res.Shards)),
		"core.forced_seals":           single(float64(tp.res.ForcedSeals)),
		"core.late_links":             single(float64(tp.res.LateLinks)),
		"core.peak_buffered_acts":     single(float64(tp.res.PeakBufferedActivities)),
		"core.peak_resident_vertices": single(float64(tp.res.PeakResidentVertices)),
		"core.correlation_ms":         single(float64(tp.res.CorrelationTime) / 1e6),

		"ranker.rank_ns_per_act":   single(iso.rankNs),
		"engine.handle_ns_per_act": single(iso.handleNs),
		"ranker.swaps":             single(float64(tp.res.Ranker.Swaps)),
		"ranker.noise_dropped":     single(float64(tp.res.Ranker.NoiseDropped)),
		"ranker.peak_buffered":     single(float64(tp.res.Ranker.PeakBuffered)),
		"engine.merged_sends":      single(float64(tp.res.Engine.MergedSends)),
		"engine.reuse_breaks":      single(float64(tp.res.Engine.ThreadReuseBreaks)),

		"export.otlp_us_per_graph":   single(perGraphUs(spSinkOTLP)),
		"export.otlp_b_per_graph":    single(float64(tp.otlpSize.n) / graphs),
		"export.dump_us_per_graph":   single(perGraphUs(spSinkDump)),
		"live.ingest_us_per_graph":   single(perGraphUs(spSinkLive)),
		"cag.signature_us_per_graph": single(iso.signatureUs),
		"cag.vertices_per_graph":     single(iso.verticesPerGraph),

		"runtime.gc_cpu_frac":      summarize(timed.gcFrac, ""),
		"runtime.gc_cycles":        summarize(timed.gcCycles, ""),
		"runtime.allocs_per_act":   summarize(timed.allocN, ""),
		"runtime.heap_live_mb_eof": single(tp.heapLiveMB),

		"loadgen.late_p99_ms":       summarize(timed.late99, ""),
		"loadgen.late_max_ms":       summarize(timed.lateMax, ""),
		"loadgen.offered_act_per_s": summarize(timed.offered, ""),

		// The inline judging of the traced pass is the benchmark's own
		// work, not tracing: it is taken out of the traced wall time.
		"trace.overhead_frac":   single(float64(tp.wallNs-emitter.total[spSinkVerify])/medianWall - 1),
		"trace.accounted_frac":  single(float64(drive.top) / float64(tp.wallNs)),
		"trace.layers_cpu_frac": single(((iso.flowAddNs+iso.rankNs+iso.handleNs)*n + float64(sinkNs)) / (medianCPU * n)),
	}
	if w.wire {
		handlers := tp.probe.buf.totals()
		waits := percentiles(tp.probe.waits, 0.5, 0.99)
		// Closing is everything from the first Agent.Close to Ingest.Close
		// returning, less the sinks' time on the ingest goroutine in it.
		closing := tp.wallNs - tp.closeStart
		for _, s := range tp.ingest.spans {
			if s.parent < 0 && s.start >= tp.closeStart {
				closing -= s.end - s.start
			}
		}
		got["transport.sink_block_ms"] = single(float64(handlers.total[spSinkBatch]) / 1e6)
		got["transport.batches"] = single(float64(handlers.count[spSinkBatch]))
		got["transport.recs_per_batch"] = single(float64(tp.probe.recs) / float64(max(1, handlers.count[spSinkBatch])))
		got["transport.tcp_b_per_rec"] = single(float64(tp.probe.tx.Load()) / n)
		got["transport.ack_b_per_rec"] = single(float64(tp.probe.rx.Load()) / n)
		got["core.ingest_wait_us_p50"] = single(waits[0] / 1e3)
		got["core.ingest_wait_us_p99"] = single(waits[1] / 1e3)
		got["core.close_ms"] = single(float64(closing) / 1e6)
	}
	out := make(map[string]sample, len(perLayer))
	for _, d := range perLayer {
		s := got[d.Name]
		s.Unit = d.Unit
		out[d.Name] = s
	}
	return out
}

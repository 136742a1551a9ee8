package core

import (
	"fmt"
	"testing"

	"repro/internal/cag"
)

// TestSinkChainOrder registers two recording sinks around a Collect (the
// last one through AddSink) and checks the chain's contract for the
// sequential and the pooled session: every sink receives the same graphs
// in the same END order as a sink-less session accumulates them, sink i
// sees each graph before sink i+1, and Result.Graphs stays empty.
func TestSinkChainOrder(t *testing.T) {
	res := fastRun(t, 60, nil)
	for _, workers := range []int{1, 2} {
		label := fmt.Sprintf("workers=%d", workers)
		ref := pushReplay(t, mustSession(t, sessionOptions(res, workers), hostsOf(res)), res, 64)
		if len(ref.Graphs) == 0 {
			t.Fatalf("%s: reference run produced no graphs", label)
		}

		var first, last []*cag.Graph
		col := &Collect{}
		opts := sessionOptions(res, workers)
		opts.Sinks = []GraphSink{
			GraphSinkFunc(func(g *cag.Graph) {
				if n := len(first); len(col.Graphs) != n || len(last) != n {
					t.Errorf("%s: graph %d reached the first sink after a later one", label, n)
				}
				first = append(first, g)
			}),
			col,
		}
		sess := mustSession(t, opts, hostsOf(res))
		sess.AddSink(GraphSinkFunc(func(g *cag.Graph) {
			n := len(last)
			if len(first) != n+1 || first[n] != g || len(col.Graphs) != n+1 || col.Graphs[n] != g {
				t.Errorf("%s: graph %d reached the last sink before the earlier ones", label, n)
			}
			last = append(last, g)
		}))
		out := pushReplay(t, sess, res, 64)
		if len(out.Graphs) != 0 {
			t.Fatalf("%s: streaming session accumulated %d graphs", label, len(out.Graphs))
		}
		for name, got := range map[string][]*cag.Graph{"first": first, "collect": col.Graphs, "last": last} {
			assertEmitted(t, label+" "+name, got, ref.Graphs)
			assertSameGraphs(t, label+" "+name, ref, &Result{Graphs: got})
		}
	}
}

// TestAddSinkKeepsCallerSlice: the session copies Options.Sinks, so a
// caller appending into its own slice's spare capacity after NewSession
// can neither replace a sink added with AddSink nor join the chain.
func TestAddSinkKeepsCallerSlice(t *testing.T) {
	res := fastRun(t, 40, nil)
	var first, added, later, intruder int
	sinks := make([]GraphSink, 1, 4)
	sinks[0] = GraphSinkFunc(func(*cag.Graph) { first++ })
	opts := options(res)
	opts.Sinks = sinks
	sess := mustSession(t, opts, hostsOf(res))
	sess.AddSink(GraphSinkFunc(func(*cag.Graph) { added++ }))
	_ = append(sinks, GraphSinkFunc(func(*cag.Graph) { intruder++ }))
	sess.AddSink(GraphSinkFunc(func(*cag.Graph) { later++ }))
	pushReplay(t, sess, res, 0)
	if first == 0 || added != first || later != first || intruder != 0 {
		t.Fatalf("sink calls: first=%d added=%d later=%d intruder=%d; want the first three equal and nonzero, intruder 0",
			first, added, later, intruder)
	}
}

func mustSession(t *testing.T, opts Options, hosts []string) *Session {
	t.Helper()
	s, err := NewSession(opts, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

package groundtruth

import (
	"testing"

	"repro/internal/activity"
	"repro/internal/cag"
)

// vx builds a vertex represented by a copy of a, with no records:
// graphWith supplies them.
func vx(a activity.Activity) *cag.Vertex {
	v := cag.NewVertex(&a)
	v.Records = v.Records[:0]
	return v
}

func mkActivity(id, req int64) *activity.Activity {
	return &activity.Activity{ID: id, ReqID: req, MsgID: -1, Type: activity.Begin,
		Ctx: activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}}
}

// graphWith builds a minimal two-vertex CAG whose records carry the given
// (id, req) pairs, split across the two vertices.
func graphWith(t *testing.T, pairs ...[2]int64) *cag.Graph {
	t.Helper()
	ctx := activity.Context{Host: "web1", Program: "httpd", PID: 1, TID: 1}
	root := vx(activity.Activity{Type: activity.Begin, Ctx: ctx})
	end := vx(activity.Activity{Type: activity.End, Ctx: ctx})
	for i, p := range pairs {
		a := mkActivity(p[0], p[1])
		if i%2 == 0 {
			root.Records = append(root.Records, a)
		} else {
			end.Records = append(end.Records, a)
		}
	}
	g := cag.New(root)
	if err := g.AddVertex(end, cag.ContextEdge, root); err != nil {
		t.Fatal(err)
	}
	if err := g.Finish(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestJudgeCorrect(t *testing.T) {
	tr := New()
	tr.Add(7, 1)
	tr.Add(7, 2)
	g := graphWith(t, [2]int64{1, 7}, [2]int64{2, 7})
	v, req := tr.Judge(g)
	if v != Correct || req != 7 {
		t.Fatalf("verdict = %v req=%d", v, req)
	}
}

func TestJudgeMixed(t *testing.T) {
	tr := New()
	tr.Add(7, 1)
	tr.Add(8, 2)
	g := graphWith(t, [2]int64{1, 7}, [2]int64{2, 8})
	if v, _ := tr.Judge(g); v != Mixed {
		t.Fatalf("verdict = %v, want mixed", v)
	}
}

func TestJudgeDeformedMissing(t *testing.T) {
	tr := New()
	tr.Add(7, 1)
	tr.Add(7, 2)
	tr.Add(7, 3)
	g := graphWith(t, [2]int64{1, 7}, [2]int64{2, 7}) // record 3 missing
	if v, _ := tr.Judge(g); v != Deformed {
		t.Fatalf("verdict = %v, want deformed", v)
	}
}

func TestJudgeDeformedForeignRecord(t *testing.T) {
	tr := New()
	tr.Add(7, 1)
	tr.Add(7, 2)
	// Graph claims record 99 which truth does not associate with request 7.
	g := graphWith(t, [2]int64{1, 7}, [2]int64{99, 7})
	if v, _ := tr.Judge(g); v != Deformed {
		t.Fatalf("verdict = %v, want deformed", v)
	}
}

func TestJudgeOrphan(t *testing.T) {
	tr := New()
	g := graphWith(t, [2]int64{1, -1}, [2]int64{2, -1})
	if v, _ := tr.Judge(g); v != Orphan {
		t.Fatalf("verdict = %v, want orphan", v)
	}
}

func TestEvaluateCountsAndAccuracy(t *testing.T) {
	tr := New()
	tr.Add(1, 10)
	tr.Add(2, 20)
	tr.Add(3, 30)
	graphs := []*cag.Graph{
		graphWith(t, [2]int64{10, 1}), // correct
		graphWith(t, [2]int64{20, 2}), // correct
		// request 3 missing entirely
	}
	rep := tr.Evaluate(graphs)
	if rep.CorrectPaths != 2 || rep.MissingPaths != 1 || rep.LoggedRequests != 3 {
		t.Fatalf("report: %+v", rep)
	}
	if acc := rep.PathAccuracy(); acc < 0.66 || acc > 0.67 {
		t.Fatalf("accuracy = %f", acc)
	}
	if rep.FalseNegatives() != 1 || rep.FalsePositives() != 0 {
		t.Fatalf("fp/fn: %+v", rep)
	}
}

func TestEvaluateDuplicate(t *testing.T) {
	tr := New()
	tr.Add(1, 10)
	graphs := []*cag.Graph{
		graphWith(t, [2]int64{10, 1}),
		graphWith(t, [2]int64{10, 1}),
	}
	rep := tr.Evaluate(graphs)
	if rep.CorrectPaths != 1 || rep.DuplicatePaths != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestFromTraceSkipsNoise(t *testing.T) {
	trace := []*activity.Activity{
		mkActivity(1, 7),
		mkActivity(2, -1), // noise
		mkActivity(3, 7),
	}
	tr := FromTrace(trace)
	if tr.Requests() != 1 {
		t.Fatalf("requests = %d", tr.Requests())
	}
}

func TestEmptyTruthAccuracyIsOne(t *testing.T) {
	rep := New().Evaluate(nil)
	if rep.PathAccuracy() != 1 {
		t.Fatalf("empty accuracy = %f", rep.PathAccuracy())
	}
}

func TestVerdictString(t *testing.T) {
	for _, v := range []Verdict{Correct, Mixed, Deformed, Orphan} {
		if v.String() == "" {
			t.Fatal("empty verdict string")
		}
	}
}

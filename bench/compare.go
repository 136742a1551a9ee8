package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// compareFiles judges run b against base run a, both written by -out:
// per workload and end-to-end metric it prints both medians, b's ratio to
// the base, and a verdict under the metric's bound —
//
//	UNRESOLVED  either run's own spread (interquartile range over its
//	            passes, as a share of its median) is wider than the bound,
//	            so the two medians cannot be told apart at that precision;
//	REGRESSION  b's median is worse than a's by more than the bound;
//	PASS        otherwise.
//
// It returns the exit code: 1 when any row is a REGRESSION, 2 when a file
// cannot be read, else 0.
func compareFiles(pathA, pathB string, w io.Writer) int {
	a, errA := readSummary(pathA)
	b, errB := readSummary(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareSummaries(a, b, w)
}

func readSummary(path string) (*summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func compareSummaries(a, b *summary, w io.Writer) int {
	base := make(map[string]*result, len(a.Workloads))
	for _, r := range a.Workloads {
		base[r.Workload] = r
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %6s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "verdict")
	for _, rb := range b.Workloads {
		ra := base[rb.Workload]
		if ra == nil {
			continue
		}
		if rb.Failed > ra.Failed {
			fmt.Fprintf(w, "%-14s %-16s %14d %14d %9s %6s  REGRESSION\n", rb.Workload, "requests_failed", ra.Failed, rb.Failed, "", "")
			code = 1
		}
		for _, d := range endToEnd {
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB || sa.Value == 0 {
				continue
			}
			verdict := judge(d, sa, sb)
			if verdict == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %9.4f %5.0f%%  %s\n",
				rb.Workload, d.Name, sa.Value, sb.Value, sb.Value/sa.Value, d.Bound*100, verdict)
		}
	}
	return code
}

func judge(d metricDef, a, b sample) string {
	spread := func(s sample) float64 {
		if s.Value == 0 {
			return 0
		}
		return (s.Q3 - s.Q1) / s.Value
	}
	// setup_s is exempt from the spread test, as it is in the driver's: its
	// quartiles come from three set-ups a run.
	if d.Name != "setup_s" && max(spread(a), spread(b)) > d.Bound {
		return "UNRESOLVED"
	}
	worse := (b.Value - a.Value) / a.Value
	if d.Better == "higher" {
		worse = -worse
	}
	if worse > d.Bound {
		return "REGRESSION"
	}
	return "PASS"
}

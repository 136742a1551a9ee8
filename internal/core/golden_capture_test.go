package core

// Golden fixed point: TestGoldenDump renders canonical fingerprints of
// the offline and online correlation outputs and compares the SHA-256 of
// each rendering against testdata/golden.sum, so any change to a graph's
// output fails the default test run. A change that alters output on
// purpose rewrites the file and says why:
//
//	go test -run TestGoldenDump ./internal/core -update
//
// To see what changed, write the full renderings on both sides and diff
// the directories (the files' hashes are the ones golden.sum lists, so
// `sha256sum -c` inside the directory checks it too):
//
//	GOLDEN_DUMP=/tmp/golden go test -run TestGoldenDump ./internal/core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/rubis"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.sum from this run's output")

const goldenSum = "testdata/golden.sum"

func TestGoldenDump(t *testing.T) {
	g := &golden{dir: os.Getenv("GOLDEN_DUMP"), sums: map[string]string{}}
	if g.dir != "" {
		if err := os.MkdirAll(g.dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	dump := g.dump
	cases := []struct {
		name    string
		clients int
		scale   float64
		noise   int
		skew    time.Duration
	}{
		{"clean", 120, 0.03, 0, 0},
		{"noisy", 120, 0.03, 8, 0},
		{"larger", 300, 0.05, 0, 0},
		{"skewed", 80, 0.02, 4, 300 * time.Millisecond},
	}
	for _, tc := range cases {
		cfg := rubis.DefaultConfig(tc.clients)
		cfg.Scale = tc.scale
		cfg.NoiseSessions = tc.noise
		if tc.skew > 0 {
			cfg.Skew.MaxSkew = tc.skew
		}
		res, err := rubis.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Offline sequential CorrelateTrace.
		out, err := New(Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dump(t, tc.name+"-trace-w1", out)

		// Offline CorrelateDir (sequential streaming).
		td := t.TempDir()
		if err := activity.WriteHostLogs(td, res.PerHost, true, false); err != nil {
			t.Fatal(err)
		}
		dout, err := New(Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
		}).CorrelateDir(td)
		if err != nil {
			t.Fatal(err)
		}
		dump(t, tc.name+"-dir-w1", dout)

		// Online sequential session, arrival-order replay.
		sess, err := NewSession(Options{
			Window:     10 * time.Millisecond,
			EntryPorts: []int{rubis.EntryPort},
			IPToHost:   res.IPToHost,
		}, hostsOf(res))
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arrivalOrder(res.Trace) {
			if err := sess.Push(a); err != nil {
				t.Fatal(err)
			}
			if (i+1)%256 == 0 {
				sess.Drain()
			}
		}
		dump(t, tc.name+"-session-w1", sess.Close())

		// PaperExactNoise sequential. Pre-refactor this file was produced
		// by the dedicated global-buffer pass; the directory diff across
		// the refactor is what proves the shard-aware predicate reproduces
		// it byte-for-byte.
		pout, err := New(Options{
			Window:          10 * time.Millisecond,
			EntryPorts:      []int{rubis.EntryPort},
			IPToHost:        res.IPToHost,
			PaperExactNoise: true,
		}).CorrelateTrace(res.Trace)
		if err != nil {
			t.Fatal(err)
		}
		dump(t, tc.name+"-paperexact-w1", pout)

		// Shard-aware exact mode across the worker pool and seal-horizon
		// matrix: every variant must reproduce the paperexact-w1 dump —
		// and therefore the pre-refactor global pass — byte-for-byte. The
		// horizon is far above the fixtures' request durations, so forced
		// seals only retire completed components and the graphs must not
		// change.
		for _, v := range []struct {
			name    string
			workers int
			seal    time.Duration
		}{
			{"paperexact-w1-session", 1, 0},
			{"paperexact-w4-session", 4, 0},
			{"paperexact-w1-seal", 1, time.Second},
			{"paperexact-w4-seal", 4, time.Second},
		} {
			esess, err := NewSession(Options{
				Window:          10 * time.Millisecond,
				EntryPorts:      []int{rubis.EntryPort},
				IPToHost:        res.IPToHost,
				PaperExactNoise: true,
				Workers:         v.workers,
				SealAfter:       v.seal,
			}, hostsOf(res))
			if err != nil {
				t.Fatalf("%s-%s: %v", tc.name, v.name, err)
			}
			for i, a := range arrivalOrder(res.Trace) {
				if err := esess.Push(a); err != nil {
					t.Fatal(err)
				}
				if (i+1)%256 == 0 {
					esess.Drain()
				}
			}
			eout := esess.Close()
			dump(t, tc.name+"-"+v.name, eout)
			assertSameGraphs(t, tc.name+"-"+v.name, pout, eout)
		}
	}
	g.check(t)
}

// golden collects one SHA-256 per rendered result and, when dir is set,
// writes the renderings themselves.
type golden struct {
	dir  string
	sums map[string]string // file name → hex SHA-256
}

func (g *golden) dump(t *testing.T, name string, r *Result) {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "graphs=%d activities=%d unfinished=%d\n", len(r.Graphs), r.Activities, r.Unfinished())
	for i, gr := range r.Graphs {
		fmt.Fprintf(&b, "--- %d ---\n%s\n", i, fingerprint(gr))
	}
	file := name + ".txt"
	g.sums[file] = fmt.Sprintf("%x", sha256.Sum256(b.Bytes()))
	if g.dir != "" {
		if err := os.WriteFile(filepath.Join(g.dir, file), b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// check compares the collected hashes against goldenSum, or rewrites it
// under -update. The file is in sha256sum's format.
func (g *golden) check(t *testing.T) {
	t.Helper()
	names := make([]string, 0, len(g.sums))
	for n := range g.sums {
		names = append(names, n)
	}
	sort.Strings(names)
	if *update {
		var b strings.Builder
		for _, n := range names {
			fmt.Fprintf(&b, "%s  %s\n", g.sums[n], n)
		}
		if err := os.WriteFile(goldenSum, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenSum)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		sum, n, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenSum, line)
		}
		want[n] = sum
	}
	for _, n := range names {
		switch w, ok := want[n]; {
		case !ok:
			t.Errorf("%s: not in %s", n, goldenSum)
		case w != g.sums[n]:
			t.Errorf("%s: sha256 %s, %s has %s (GOLDEN_DUMP=dir writes the output to diff)", n, g.sums[n], goldenSum, w)
		}
	}
	for n := range want {
		if _, ok := g.sums[n]; !ok {
			t.Errorf("%s: listed in %s but not produced", n, goldenSum)
		}
	}
}

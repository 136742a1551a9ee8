package cli

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestUsagefWraps(t *testing.T) {
	err := Usagef("bad %s", "value")
	if !errors.Is(err, ErrUsage) {
		t.Fatal("Usagef must wrap ErrUsage")
	}
	if !strings.Contains(err.Error(), "bad value") {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyValidatesWorkers(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCorrelator(fs)
	if err := fs.Parse([]string{"-workers", "-1"}); err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	if _, err := c.Apply(&opts); !errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want ErrUsage", err)
	}
}

func TestApplyValidatesSealAfter(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCorrelator(fs)
	if err := fs.Parse([]string{"-sealafter", "not-a-duration"}); err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	if _, err := c.Apply(&opts); !errors.Is(err, ErrUsage) {
		t.Fatalf("err = %v, want ErrUsage", err)
	}
}

func TestApplyInstallsOptions(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := RegisterCorrelator(fs)
	args := []string{
		"-workers", "1",
		"-sealafter", "50ms,db1=500ms",
		"-export", "otlp=" + filepath.Join(dir, "spans.ndjson") + ",dot=" + filepath.Join(dir, "dots") + ",dump=" + filepath.Join(dir, "dump.txt"),
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	var opts core.Options
	ex, err := c.Apply(&opts)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 1 {
		t.Fatalf("workers = %d", opts.Workers)
	}
	if opts.SealAfter != 50*time.Millisecond || opts.SealAfterByHost["db1"] != 500*time.Millisecond {
		t.Fatalf("sealafter = %v / %v", opts.SealAfter, opts.SealAfterByHost)
	}
	if len(opts.Sinks) != 3 || !ex.Active() {
		t.Fatalf("sinks = %d, active = %v", len(opts.Sinks), ex.Active())
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}
	// Files exist (empty, nothing consumed).
	if _, err := os.Stat(filepath.Join(dir, "spans.ndjson")); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "dots")); err != nil || !fi.IsDir() {
		t.Fatalf("dots dir: %v", err)
	}
	if s := ex.Summary(); !strings.Contains(s, "OTLP-JSON") || !strings.Contains(s, ".dot files") {
		t.Fatalf("summary = %q", s)
	}
}

func TestParseExportsRejects(t *testing.T) {
	for _, spec := range []string{"bogus=/tmp/x", "otlp", "=dest", "otlp="} {
		if _, err := ParseExports(spec); !errors.Is(err, ErrUsage) {
			t.Fatalf("spec %q: err = %v, want ErrUsage", spec, err)
		}
	}
	ex, err := ParseExports("  ")
	if err != nil || ex.Active() {
		t.Fatalf("empty spec: %v active=%v", err, ex.Active())
	}
}

// Package cli holds the flag plumbing shared by the correlating
// commands (precisetracer, livemon): usage-marked errors, the common
// -workers/-sealafter flags with their validation, and the -export flag
// that turns export sink specs into core.GraphSinks — defined once so
// both CLIs accept the same spellings.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/export"
)

// ErrUsage marks a rejected flag value: Main prints the flag usage
// after the error instead of failing silently on a misconfiguration.
var ErrUsage = errors.New("invalid flag value")

// Usagef wraps a flag complaint in ErrUsage.
func Usagef(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrUsage}, args...)...)
}

// Main is the shared command entry: run, report errors under the
// command name, print usage for ErrUsage, exit non-zero on failure.
func Main(name string, run func() error) {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, name+":", err)
		if errors.Is(err, ErrUsage) {
			flag.Usage()
		}
		os.Exit(1)
	}
}

// Correlator carries the flags every correlating command shares.
// Register on a FlagSet before Parse, Apply after.
type Correlator struct {
	workers   *int
	sealAfter *string
	export    *string
}

// RegisterCorrelator defines the shared flags on fs.
func RegisterCorrelator(fs *flag.FlagSet) *Correlator {
	return &Correlator{
		workers: fs.Int("workers", 1,
			"correlation workers sizing the streaming engine's pool (1 = sequential configuration, 0 = all CPUs)"),
		sealAfter: fs.String("sealafter", "",
			"activity-time seal horizon(s): a default duration and/or host=duration overrides, comma-separated (e.g. '50ms,db1=500ms'); empty = close-driven sealing only"),
		export: fs.String("export", "",
			"graph export sinks, comma-separated kind=dest specs: otlp=FILE (OTLP-JSON lines), otlp=http(s)://HOST/v1/traces (OTLP/HTTP), dot=DIR (one .dot per CAG), dump=FILE (canonical text dumps)"),
	}
}

// Apply validates the shared flags and installs them into opts:
// resolved worker count, seal horizons, and any -export sinks appended
// to opts.Sinks. The returned Exports owns the sinks' file handles —
// Close it once the run is over (it flushes HTTP batches and surfaces
// sticky write errors).
func (c *Correlator) Apply(opts *core.Options) (*Exports, error) {
	if *c.workers < 0 {
		return nil, Usagef("-workers must be >= 0 (got %d; 0 = all CPUs)", *c.workers)
	}
	opts.Workers = core.ResolveWorkers(*c.workers)
	sealDefault, sealByHost, err := core.ParseSealAfterSpec(*c.sealAfter)
	if err != nil {
		return nil, Usagef("%v", err)
	}
	opts.SealAfter = sealDefault
	opts.SealAfterByHost = sealByHost
	exports, err := ParseExports(*c.export)
	if err != nil {
		return nil, err
	}
	for _, e := range exports.entries {
		opts.Sinks = append(opts.Sinks, e.sink)
	}
	return exports, nil
}

// Exports is the set of sinks built from one -export spec.
type Exports struct {
	entries []exportEntry
}

type exportEntry struct {
	kind, dest string
	sink       core.GraphSink
}

// ParseExports builds sinks from a comma-separated kind=dest spec.
// An empty spec yields an empty (but usable) set.
func ParseExports(spec string) (*Exports, error) {
	ex := &Exports{}
	if strings.TrimSpace(spec) == "" {
		return ex, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kind, dest, ok := strings.Cut(strings.TrimSpace(part), "=")
		kind, dest = strings.TrimSpace(kind), strings.TrimSpace(dest)
		if !ok || kind == "" || dest == "" {
			ex.Close()
			return nil, Usagef("-export entry %q: want kind=dest", part)
		}
		var sink core.GraphSink
		var err error
		switch kind {
		case "otlp":
			if strings.HasPrefix(dest, "http://") || strings.HasPrefix(dest, "https://") {
				sink = export.NewHTTPExporter(dest)
			} else {
				sink, err = export.NewFileExporter(dest)
			}
		case "dot":
			sink, err = export.NewDOTDir(dest)
		case "dump":
			sink, err = export.NewDumpFile(dest)
		default:
			err = fmt.Errorf("unknown export kind %q (want otlp, dot or dump)", kind)
		}
		if err != nil {
			ex.Close()
			return nil, Usagef("-export entry %q: %v", part, err)
		}
		ex.entries = append(ex.entries, exportEntry{kind: kind, dest: dest, sink: sink})
	}
	return ex, nil
}

// Active reports whether any sink was configured.
func (e *Exports) Active() bool { return len(e.entries) > 0 }

// Close flushes and closes every sink, returning the first error
// (including sticky write errors accumulated during the run).
func (e *Exports) Close() error {
	var first error
	for _, en := range e.entries {
		var err error
		if c, ok := en.sink.(interface{ Close() error }); ok {
			err = c.Close()
		} else if s, ok := en.sink.(interface{ Err() error }); ok {
			err = s.Err()
		}
		if err != nil && first == nil {
			first = fmt.Errorf("-export %s=%s: %w", en.kind, en.dest, err)
		}
	}
	return first
}

// Summary returns one human line per sink describing what was written.
// Call after Close.
func (e *Exports) Summary() string {
	var b strings.Builder
	for _, en := range e.entries {
		switch s := en.sink.(type) {
		case *export.Exporter:
			fmt.Fprintf(&b, "exported %d traces (%d spans) as OTLP-JSON to %s\n", s.Graphs(), s.Spans(), en.dest)
		case *export.HTTPExporter:
			fmt.Fprintf(&b, "exported %d traces in %d POSTs to %s\n", s.Graphs(), s.Posts(), en.dest)
		case *export.DOTDir:
			fmt.Fprintf(&b, "wrote %d .dot files under %s\n", s.Graphs(), en.dest)
		case *export.DumpWriter:
			fmt.Fprintf(&b, "wrote %d graph dumps to %s\n", s.Graphs(), en.dest)
		}
	}
	return b.String()
}

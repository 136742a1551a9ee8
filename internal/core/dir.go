package core

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/activity"
)

// CorrelateDir streams one correlation pass over a directory of per-host
// TCP_TRACE logs (<host>.trace or <host>.trace.gz, as written by
// activity.WriteHostLogs / rubisgen -splitdir). The logs are decoded
// lazily, merged by timestamp and replayed through the streaming engine,
// which buffers each flow component until it seals: configure a seal
// horizon (Options.SealAfter / SealAfterByHost) to bound that buffering on
// long inputs — with one, memory tracks recently-active components instead
// of the trace size. Use Options.Sinks to also bound the output side.
//
// If Options.IPToHost is nil the traced-node map is inferred with a cheap
// first pass over the logs.
func (c *Correlator) CorrelateDir(dir string) (*Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if len(c.opts.EntryPorts) == 0 {
		return nil, ErrNoEntryPorts
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), ".trace") || strings.HasSuffix(e.Name(), ".trace.gz") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("core: no .trace files in %s", dir)
	}

	opts := c.opts
	if opts.IPToHost == nil {
		m, err := inferTopology(dir, names)
		if err != nil {
			return nil, err
		}
		opts.IPToHost = m
	}

	start := time.Now()
	counters := make([]int64, len(names))
	hosts := make([]string, 0, len(names))
	files := make([]*activity.FileSource, 0, len(names))
	defer func() { closeAll(files) }()
	for i, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		counters[i] = activity.HostIDBase(i)
		fs, err := activity.OpenFileSource(host, filepath.Join(dir, name), &counters[i])
		if err != nil {
			return nil, err
		}
		files = append(files, fs)
		hosts = append(hosts, host)
	}

	// Merge the logs by timestamp, the earlier file first on a tie, and
	// classify each record as it is popped. The session takes the parsed
	// records over: no copy. A log that stops on an error fails the pass
	// at once, before the other logs are correlated to their ends.
	s := newSession(opts, hosts)
	every := 0
	if opts.continuousConfigured() {
		every = replayDrainEvery
	}
	for pushed := 1; ; pushed++ {
		var next *activity.FileSource
		for _, fs := range files {
			a := fs.Peek()
			if a == nil {
				if err := fs.Err(); err != nil {
					return nil, fmt.Errorf("core: %s: %w", fs.Host(), err)
				}
				continue
			}
			if next == nil || a.Timestamp < next.Peek().Timestamp {
				next = fs
			}
		}
		if next == nil {
			break
		}
		a := next.Pop()
		a.Type = s.cls.Classify(a)
		s.replayPush(a)
		if every > 0 && pushed%every == 0 {
			s.Drain()
		}
	}
	total := 0
	for i := range counters {
		total += int(counters[i] - activity.HostIDBase(i))
	}
	return c.finishReplay(s, total, start), nil
}

func closeAll(files []*activity.FileSource) {
	for _, f := range files {
		_ = f.Close()
	}
}

// inferTopology scans the logs once, building the IP -> host map from
// which node logged which endpoints (activity.InferIPToHost, streaming).
func inferTopology(dir string, names []string) (map[string]string, error) {
	m := make(map[string]string)
	for _, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		fs, err := activity.OpenFileSource(host, filepath.Join(dir, name), nil)
		if err != nil {
			return nil, err
		}
		for {
			a := fs.Pop()
			if a == nil {
				break
			}
			activity.NoteIPOwner(m, a)
		}
		err = fs.Err()
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("core: infer topology from %s: %w", name, err)
		}
	}
	return m, nil
}

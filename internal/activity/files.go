package activity

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The real deployment collects one TCP_TRACE log per node and ships them to
// the correlator (Fig. 2). These helpers store traces the same way: one
// file per host named <host>.trace (optionally .gz), with the standard wire
// format inside.

// HostLogName returns the file name for a host's log.
func HostLogName(host string, gz bool) string {
	if gz {
		return host + ".trace.gz"
	}
	return host + ".trace"
}

// WriteHostLogs writes one log file per host into dir.
func WriteHostLogs(dir string, perHost map[string][]*Activity, withTruth, gz bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	hosts := make([]string, 0, len(perHost))
	for h := range perHost {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	for _, host := range hosts {
		if err := writeHostLog(filepath.Join(dir, HostLogName(host, gz)), perHost[host], withTruth, gz); err != nil {
			return fmt.Errorf("host %s: %w", host, err)
		}
	}
	return nil
}

func writeHostLog(path string, log []*Activity, withTruth, gz bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var sink io.Writer = f
	var zw *gzip.Writer
	if gz {
		zw = gzip.NewWriter(f)
		sink = zw
	}
	w := NewWriter(sink, withTruth)
	for _, a := range log {
		if err := w.Write(a); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return err
		}
	}
	return f.Close()
}

// HostIDBase returns the record-ID base for the i-th host (host-sorted
// order): each host owns a disjoint ID space so that lazy streaming readers
// and whole-file readers assign identical IDs regardless of interleaving.
func HostIDBase(i int) int64 { return int64(i) << 40 }

// ReadHostLogs loads every *.trace / *.trace.gz file in dir, returning the
// per-host logs keyed by the host name encoded in the file name. Record IDs
// are HostIDBase(hostIndex) + line, matching what FileSource-based
// streaming assigns, so ground-truth checking is consistent across both
// read paths.
func ReadHostLogs(dir string) (map[string][]*Activity, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		n := e.Name()
		if strings.HasSuffix(n, ".trace") || strings.HasSuffix(n, ".trace.gz") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .trace files in %s", dir)
	}
	out := make(map[string][]*Activity, len(names))
	for i, name := range names {
		host := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".trace")
		log, _, err := readLog(filepath.Join(dir, name), HostIDBase(i))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out[host] = log
	}
	return out, nil
}

func readLog(path string, idBase int64) ([]*Activity, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, idBase, err
	}
	defer f.Close()
	var src io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, idBase, err
		}
		defer zr.Close()
		src = zr
	}
	as, err := ReadAll(src)
	if err != nil {
		return nil, idBase, err
	}
	for _, a := range as {
		a.ID = idBase
		idBase++
	}
	return as, idBase, nil
}

// Merge flattens per-host logs into one slice (host-sorted order).
func Merge(perHost map[string][]*Activity) []*Activity {
	hosts := make([]string, 0, len(perHost))
	total := 0
	for h, log := range perHost {
		hosts = append(hosts, h)
		total += len(log)
	}
	sort.Strings(hosts)
	out := make([]*Activity, 0, total)
	for _, h := range hosts {
		out = append(out, perHost[h]...)
	}
	return out
}

// FileSource lazily parses one host's log, one record ahead, so a
// correlation pass can merge several logs from disk without materialising
// the trace in memory.
type FileSource struct {
	host    string
	sc      *bufio.Scanner
	closers []io.Closer
	next    *Activity
	err     error
	idNext  *int64
}

// OpenFileSource opens a host log (plain or gzip). ids, when non-nil, is a
// shared counter used to assign unique record IDs across sources.
func OpenFileSource(host, path string, ids *int64) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var src io.Reader = f
	closers := []io.Closer{f}
	if strings.HasSuffix(path, ".gz") {
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return nil, err
		}
		src = zr
		closers = append(closers, zr)
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	s := &FileSource{host: host, sc: sc, closers: closers, idNext: ids}
	s.advance()
	return s, nil
}

// Host returns the host name the log was opened under.
func (s *FileSource) Host() string { return s.host }

// Peek returns the next record without consuming it, or nil at the end
// of the log or at the first error.
func (s *FileSource) Peek() *Activity { return s.next }

// Pop consumes and returns the next record, or nil when Peek would.
func (s *FileSource) Pop() *Activity {
	a := s.next
	if a != nil {
		s.advance()
	}
	return a
}

// Err returns the first parse or I/O error encountered.
func (s *FileSource) Err() error { return s.err }

// Close releases the underlying files.
func (s *FileSource) Close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i].Close(); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	return first
}

func (s *FileSource) advance() {
	s.next = nil
	for s.sc.Scan() {
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		a, err := ParseRecord(line)
		if err != nil {
			s.err = err
			return
		}
		if s.idNext != nil {
			a.ID = *s.idNext
			*s.idNext++
		}
		s.next = a
		return
	}
	if err := s.sc.Err(); err != nil {
		s.err = err
	}
}

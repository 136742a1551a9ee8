package activity

import (
	"path/filepath"
	"testing"
	"time"
)

func hostLogs() map[string][]*Activity {
	mk := func(host string, n int) []*Activity {
		var out []*Activity
		for i := 0; i < n; i++ {
			out = append(out, &Activity{
				Type:      Send,
				Timestamp: time.Duration(i) * time.Millisecond,
				Ctx:       Context{Host: host, Program: "p", PID: 1, TID: 1},
				Chan: Channel{Src: EP("10.0.0.1", 1000+i),
					Dst: EP("10.0.0.2", 80)},
				Size:  int64(10 + i),
				ReqID: int64(i), MsgID: int64(i),
			})
		}
		return out
	}
	return map[string][]*Activity{"web1": mk("web1", 5), "app1": mk("app1", 3)}
}

func TestHostLogsRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		in := hostLogs()
		if err := WriteHostLogs(dir, in, true, gz); err != nil {
			t.Fatal(err)
		}
		out, err := ReadHostLogs(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 2 || len(out["web1"]) != 5 || len(out["app1"]) != 3 {
			t.Fatalf("gz=%v: round trip lost records: %d hosts", gz, len(out))
		}
		for host, log := range out {
			for i, a := range log {
				want := in[host][i]
				if a.Timestamp != want.Timestamp || a.Chan != want.Chan || a.ReqID != want.ReqID {
					t.Fatalf("gz=%v %s[%d]: %v != %v", gz, host, i, a, want)
				}
			}
		}
		// Global IDs must be unique across hosts.
		seen := map[int64]bool{}
		for _, a := range Merge(out) {
			if seen[a.ID] {
				t.Fatalf("duplicate record ID %d", a.ID)
			}
			seen[a.ID] = true
		}
	}
}

func TestHostLogNames(t *testing.T) {
	if HostLogName("web1", false) != "web1.trace" || HostLogName("web1", true) != "web1.trace.gz" {
		t.Fatal("log naming")
	}
}

func TestReadHostLogsEmptyDir(t *testing.T) {
	if _, err := ReadHostLogs(t.TempDir()); err == nil {
		t.Fatal("expected error for empty dir")
	}
}

func TestMergeOrdersHosts(t *testing.T) {
	merged := Merge(hostLogs())
	if len(merged) != 8 {
		t.Fatalf("merged = %d", len(merged))
	}
	// app1 sorts before web1.
	if merged[0].Ctx.Host != "app1" || merged[len(merged)-1].Ctx.Host != "web1" {
		t.Fatal("merge order wrong")
	}
}

func TestFileSourceStreams(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		if err := WriteHostLogs(dir, hostLogs(), true, gz); err != nil {
			t.Fatal(err)
		}
		var ids int64
		src, err := OpenFileSource("web1", filepath.Join(dir, HostLogName("web1", gz)), &ids)
		if err != nil {
			t.Fatal(err)
		}
		if src.Host() != "web1" {
			t.Fatalf("host = %q", src.Host())
		}
		count := 0
		var lastTS time.Duration
		for {
			a := src.Peek()
			if a == nil {
				break
			}
			if got := src.Pop(); got != a {
				t.Fatal("Pop != Peek")
			}
			if a.Timestamp < lastTS {
				t.Fatal("stream out of order")
			}
			lastTS = a.Timestamp
			count++
		}
		if count != 5 {
			t.Fatalf("gz=%v: streamed %d records, want 5", gz, count)
		}
		if src.Err() != nil {
			t.Fatalf("source error: %v", src.Err())
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if ids != 5 {
			t.Fatalf("ids assigned = %d", ids)
		}
	}
}

func TestFileSourceParseError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.trace")
	if err := writeHostLog(path, hostLogs()["app1"], false, false); err != nil {
		t.Fatal(err)
	}
	// Append a corrupt line.
	f, err := openAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not a record\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource("app1", path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for src.Pop() != nil {
	}
	if src.Err() == nil {
		t.Fatal("expected parse error to surface via Err")
	}
}

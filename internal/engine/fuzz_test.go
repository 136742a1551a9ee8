package engine

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/activity"
	"repro/internal/cag"
)

// fuzzRecords decodes a fuzz program into fresh activity records, one per
// byte: type, host, program, thread, ports and size all come from the byte.
func fuzzRecords(program []byte) []*activity.Activity {
	hosts := []string{"h0", "h1", "h2"}
	progs := []string{"p0", "p1"}
	as := make([]*activity.Activity, len(program))
	for i, b := range program {
		host := hosts[int(b>>2)%len(hosts)]
		port := 80
		if b%2 == 0 {
			port = 9000 + int(b%8)
		}
		as[i] = &activity.Activity{
			ID:        int64(i),
			Type:      activity.Type(b%4) + 1,
			Timestamp: time.Duration(i) * time.Millisecond,
			Ctx:       activity.Context{Host: host, Program: progs[int(b>>4)%len(progs)], PID: 1, TID: int32(b>>5)%3 + 1},
			Chan: activity.Channel{
				Src: activity.EP(host, 1000+int(b%16)),
				Dst: activity.EP(hosts[(int(b)+1)%len(hosts)], port),
			},
			Size:  int64(b%32) + 1,
			ReqID: -1, MsgID: -1,
		}
	}
	return as
}

// engineRun is everything a pass leaves observable: each output graph's
// dump and records, the counters and the residency.
type engineRun struct {
	graphs   []string
	stats    Stats
	resident int
}

func runProgram(e *Engine, program []byte) engineRun {
	for _, a := range fuzzRecords(program) {
		e.Handle(a)
	}
	r := engineRun{stats: e.Stats(), resident: e.ResidentVertices()}
	for _, g := range e.Outputs() {
		r.graphs = append(r.graphs, cag.Dump(g)+fmt.Sprint(g.RecordIDs()))
	}
	return r
}

// FuzzEngineHandle: arbitrary (even causally impossible) activity sequences
// must never panic the engine, and every emitted CAG must satisfy the
// structural invariants of §3.2. An engine reused after Reset — having run
// the same program, so every key lands on the ordinal it had before — must
// produce exactly what a fresh engine does.
func FuzzEngineHandle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 3, 3, 0, 0, 1, 2, 2, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, program []byte) {
		e := New()
		fresh := runProgram(e, program)
		for _, g := range e.Outputs() {
			if err := g.Validate(); err != nil {
				t.Fatalf("emitted invalid CAG: %v", err)
			}
		}
		if fresh.resident < 0 {
			t.Fatalf("resident vertex accounting went negative: %d", fresh.resident)
		}
		e.Reset()
		if reused := runProgram(e, program); !reflect.DeepEqual(reused, fresh) {
			t.Fatalf("engine reused after Reset differs from a fresh one:\nfresh  %+v\nreused %+v", fresh, reused)
		}
	})
}

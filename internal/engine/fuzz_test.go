package engine

import (
	"testing"
	"time"

	"repro/internal/activity"
)

// FuzzEngineHandle: arbitrary (even causally impossible) activity sequences
// must never panic the engine, and every emitted CAG must satisfy the
// structural invariants of §3.2.
func FuzzEngineHandle(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 3, 3, 0, 0, 1, 2, 2, 1, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, program []byte) {
		e := New()
		hosts := []string{"h0", "h1", "h2"}
		progs := []string{"p0", "p1"}
		for i, b := range program {
			typ := activity.Type(b%4) + 1
			host := hosts[int(b>>2)%len(hosts)]
			prog := progs[int(b>>4)%len(progs)]
			tid := int(b>>5)%3 + 1
			port := 80
			if b%2 == 0 {
				port = 9000 + int(b%8)
			}
			a := &activity.Activity{
				ID:        int64(i),
				Type:      typ,
				Timestamp: time.Duration(i) * time.Millisecond,
				Ctx:       activity.Context{Host: host, Program: prog, PID: 1, TID: int32(tid)},
				Chan: activity.Channel{
					Src: activity.EP(host, 1000+int(b%16)),
					Dst: activity.EP(hosts[(int(b)+1)%len(hosts)], port),
				},
				Size:  int64(b%32) + 1,
				ReqID: -1, MsgID: -1,
			}
			e.Handle(a)
		}
		for _, g := range e.Outputs() {
			if err := g.Validate(); err != nil {
				t.Fatalf("emitted invalid CAG: %v", err)
			}
		}
		if e.ResidentVertices() < 0 {
			t.Fatalf("resident vertex accounting went negative: %d", e.ResidentVertices())
		}
	})
}

package main

import (
	"fmt"

	"repro/internal/core"
)

// runReplay drives core.NewSession directly — the one engine every mode
// runs on, and the only surface whose stages are visible from outside:
// Push in merged timestamp order, Drain on the feeder's cadence when the
// workload is continuous, CloseHost right after each host's last record
// when it is close-driven, then Close.
func runReplay(p *pass) error {
	w, in := p.w, p.in
	sess, err := core.NewSession(w.options(in, p.sinks(p.drive)...), in.hosts)
	if err != nil {
		return err
	}
	closeEarly := w.closeEarly()
	p.stamps = make([]int64, 0, len(in.trace)/stampEvery+1)

	p.startClock()
	for i, a := range in.trace {
		s := p.drive.begin(spPush)
		err := sess.Push(a)
		p.drive.end(s)
		if err != nil {
			sess.Close()
			return fmt.Errorf("push %d: %w", i, err)
		}
		if (i+1)%stampEvery == 0 {
			p.stamps = append(p.stamps, p.since())
			if w.drain {
				s := p.drive.begin(spDrain)
				sess.Drain()
				p.drive.end(s)
			}
		}
		if i == len(in.trace)-1 {
			p.fed = p.since() // before the last host's CloseHost, which blocks on the pool
		}
		if h := in.hostOf[i]; closeEarly && in.last[h] == i {
			s := p.drive.begin(spCloseHost)
			err := sess.CloseHost(in.hosts[h])
			p.drive.end(s)
			if err != nil {
				sess.Close()
				return err
			}
		}
	}
	p.heapAtEOF()
	s := p.drive.begin(spClose)
	p.res = sess.Close()
	p.drive.end(s)
	p.stopClock()
	return nil
}

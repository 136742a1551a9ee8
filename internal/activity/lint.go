package activity

import (
	"fmt"
	"time"
)

// LintIssue is one problem found in a trace.
type LintIssue struct {
	Severity string // "error" or "warn"
	Message  string
}

// String implements fmt.Stringer.
func (l LintIssue) String() string { return l.Severity + ": " + l.Message }

// Lint checks a merged trace for the properties the correlator depends on:
//
//   - per-host local-clock monotonicity (a kernel log is totally ordered);
//   - every activity carries a usable context and channel;
//   - SEND records log at the source endpoint's node, RECEIVEs at the
//     destination's (when the node's addresses are inferable);
//   - byte-count symmetry per channel (sent bytes >= received bytes, with
//     a warning for channels whose counts do not reconcile — early warning
//     for activity loss, §5.2's deformed-CAG cause).
//
// It returns issues ordered as found; an empty slice means a clean trace.
func Lint(trace []*Activity) []LintIssue {
	var issues []LintIssue
	errf := func(format string, args ...any) {
		issues = append(issues, LintIssue{Severity: "error", Message: fmt.Sprintf(format, args...)})
	}
	warnf := func(format string, args ...any) {
		issues = append(issues, LintIssue{Severity: "warn", Message: fmt.Sprintf(format, args...)})
	}

	lastTS := make(map[string]time.Duration)
	ipOwner := InferIPToHost(trace)
	sentBytes := make(map[Channel]int64)
	recvBytes := make(map[Channel]int64)
	var recvOrder []Channel // channels in first-receive order

	for i, a := range trace {
		if a.Ctx.Host == "" || a.Ctx.Program == "" {
			errf("record %d: empty context (%v)", i, a)
			continue
		}
		srcIP, dstIP := Syms.Name(a.Chan.Src.IP), Syms.Name(a.Chan.Dst.IP)
		if srcIP == "" || dstIP == "" || a.Chan.Src.Port <= 0 || a.Chan.Dst.Port <= 0 {
			errf("record %d: malformed channel %v", i, a.Chan)
		}
		if a.Size <= 0 {
			errf("record %d: non-positive size %d", i, a.Size)
		}
		if prev, ok := lastTS[a.Ctx.Host]; ok && a.Timestamp < prev {
			errf("record %d: host %s local clock went backwards (%v after %v)",
				i, a.Ctx.Host, a.Timestamp, prev)
		}
		lastTS[a.Ctx.Host] = a.Timestamp

		switch a.Type {
		case Send, End:
			if owner, ok := ipOwner[srcIP]; ok && owner != a.Ctx.Host {
				errf("record %d: SEND logged on %s but source %s belongs to %s",
					i, a.Ctx.Host, srcIP, owner)
			}
			sentBytes[a.Chan] += a.Size
		case Receive, Begin:
			if owner, ok := ipOwner[dstIP]; ok && owner != a.Ctx.Host {
				errf("record %d: RECEIVE logged on %s but destination %s belongs to %s",
					i, a.Ctx.Host, dstIP, owner)
			}
			if _, seen := recvBytes[a.Chan]; !seen {
				recvOrder = append(recvOrder, a.Chan)
			}
			recvBytes[a.Chan] += a.Size
		case MaxType:
			errf("record %d: sentinel type in trace", i)
		}
	}

	// Byte reconciliation: received bytes on a channel cannot exceed sent
	// bytes when both endpoints are traced; a shortfall of sends suggests
	// lost SEND records, a shortfall of receives lost RECEIVEs (or an
	// untraced endpoint, which is only a warning). Channels are checked in
	// first-receive order so the issues come out the same on every call.
	for _, ch := range recvOrder {
		rb, sb := recvBytes[ch], sentBytes[ch]
		_, srcTraced := ipOwner[Syms.Name(ch.Src.IP)]
		switch {
		case sb == 0 && srcTraced:
			errf("channel %v: %d bytes received, none sent (lost SEND records?)", ch, rb)
		case sb == 0:
			// Untraced sender (client traffic): expected.
		case rb > sb:
			errf("channel %v: received %d > sent %d bytes", ch, rb, sb)
		case rb < sb:
			warnf("channel %v: sent %d, received only %d bytes (lost RECEIVE records or truncated trace)", ch, sb, rb)
		}
	}
	return issues
}

// LintErrors returns only error-severity issues.
func LintErrors(issues []LintIssue) []LintIssue {
	var out []LintIssue
	for _, i := range issues {
		if i.Severity == "error" {
			out = append(out, i)
		}
	}
	return out
}

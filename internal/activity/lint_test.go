package activity

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func cleanPair() []*Activity {
	send := &Activity{
		Type: Send, Timestamp: time.Millisecond,
		Ctx: Context{Host: "web1", Program: "httpd", PID: 1, TID: 1},
		Chan: Channel{Src: EP("10.0.0.1", 4000),
			Dst: EP("10.0.0.2", 8009)},
		Size: 100, ReqID: -1, MsgID: -1,
	}
	recv := &Activity{
		Type: Receive, Timestamp: 2 * time.Millisecond,
		Ctx:  Context{Host: "app1", Program: "java", PID: 2, TID: 3},
		Chan: send.Chan, Size: 100, ReqID: -1, MsgID: -1,
	}
	return []*Activity{send, recv}
}

func TestLintCleanTrace(t *testing.T) {
	if issues := Lint(cleanPair()); len(issues) != 0 {
		t.Fatalf("clean trace flagged: %v", issues)
	}
}

func TestLintClockRegression(t *testing.T) {
	tr := cleanPair()
	extra := *tr[0]
	extra.Timestamp = 0 // before the first web1 record
	tr = append(tr, &extra)
	issues := Lint(tr)
	if len(LintErrors(issues)) == 0 || !strings.Contains(issues[0].Message, "backwards") {
		t.Fatalf("regression not caught: %v", issues)
	}
}

func TestLintWrongNodeForSend(t *testing.T) {
	tr := cleanPair()
	// A SEND whose source IP belongs to app1 but logged on web1.
	bad := *tr[0]
	bad.Timestamp = 3 * time.Millisecond
	bad.Chan = Channel{Src: EP("10.0.0.2", 5000), Dst: EP("10.0.0.1", 80)}
	tr = append(tr, &bad)
	found := false
	for _, i := range Lint(tr) {
		if strings.Contains(i.Message, "belongs to") {
			found = true
		}
	}
	if !found {
		t.Fatal("wrong-node SEND not caught")
	}
}

func TestLintByteShortfall(t *testing.T) {
	tr := cleanPair()
	tr[1].Size = 40 // received less than sent
	warned := false
	for _, i := range Lint(tr) {
		if i.Severity == "warn" && strings.Contains(i.Message, "received only") {
			warned = true
		}
	}
	if !warned {
		t.Fatal("byte shortfall not warned")
	}
}

func TestLintReceiveWithoutSend(t *testing.T) {
	tr := cleanPair()[1:] // only the RECEIVE; its sender IP is untraced now
	if issues := Lint(tr); len(LintErrors(issues)) != 0 {
		t.Fatalf("untraced sender should not be an error: %v", issues)
	}
	// But if the source is a traced node (web1 appears via another SEND),
	// a missing SEND is an error.
	other := &Activity{
		Type: Send, Timestamp: 3 * time.Millisecond,
		Ctx: Context{Host: "web1", Program: "httpd", PID: 1, TID: 1},
		Chan: Channel{Src: EP("10.0.0.1", 4001),
			Dst: EP("10.0.0.2", 8009)},
		Size: 50, ReqID: -1, MsgID: -1,
	}
	tr = append(tr, other)
	found := false
	for _, i := range Lint(tr) {
		if strings.Contains(i.Message, "lost SEND") {
			found = true
		}
	}
	if !found {
		t.Fatalf("lost SEND not caught: %v", Lint(tr))
	}
}

func TestLintMalformedRecords(t *testing.T) {
	tr := []*Activity{
		{Type: Send, Ctx: Context{}, Chan: Channel{}, Size: 0},
	}
	issues := Lint(tr)
	if len(LintErrors(issues)) == 0 {
		t.Fatal("malformed record passed lint")
	}
}

func TestLintOverReceive(t *testing.T) {
	tr := cleanPair()
	tr[1].Size = 200 // more than sent
	found := false
	for _, i := range Lint(tr) {
		if i.Severity == "error" && strings.Contains(i.Message, "received 200 > sent") {
			found = true
		}
	}
	if !found {
		t.Fatalf("over-receive not caught: %v", Lint(tr))
	}
}

// TestLintChannelIssueOrder pins the byte-reconciliation issues to
// first-receive order: six channels, alternately over- and
// under-received, are received in the reverse of their send order, and
// every Lint call must report them in exactly that receive order.
func TestLintChannelIssueOrder(t *testing.T) {
	const n = 6
	var tr []*Activity
	chans := make([]Channel, n)
	for i := range chans {
		chans[i] = Channel{Src: EP("10.0.0.1", 4000+i), Dst: EP("10.0.0.2", 8009)}
		tr = append(tr, &Activity{
			Type: Send, Timestamp: time.Duration(i+1) * time.Millisecond,
			Ctx:  Context{Host: "web1", Program: "httpd", PID: 1, TID: 1},
			Chan: chans[i], Size: 100, ReqID: -1, MsgID: -1,
		})
	}
	var want []LintIssue
	for k := 0; k < n; k++ {
		i := n - 1 - k
		size, severity := int64(200), "error" // over-received
		if i%2 == 1 {
			size, severity = 40, "warn" // under-received
		}
		tr = append(tr, &Activity{
			Type: Receive, Timestamp: time.Duration(10+k) * time.Millisecond,
			Ctx:  Context{Host: "app1", Program: "java", PID: 2, TID: 3},
			Chan: chans[i], Size: size, ReqID: -1, MsgID: -1,
		})
		want = append(want, LintIssue{Severity: severity, Message: fmt.Sprintf("channel %v:", chans[i])})
	}

	first := Lint(tr)
	if len(first) != n {
		t.Fatalf("got %d issues, want %d: %v", len(first), n, first)
	}
	for k, w := range want {
		if first[k].Severity != w.Severity || !strings.HasPrefix(first[k].Message, w.Message) {
			t.Fatalf("issue %d = %v, want %s %q... (first-receive order)", k, first[k], w.Severity, w.Message)
		}
	}
	for call := 1; call < 20; call++ {
		if got := Lint(tr); !reflect.DeepEqual(got, first) {
			t.Fatalf("call %d returned %v, first call %v", call, got, first)
		}
	}
}

package client

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
)

// reply is one scripted attempt: the replica the loop must pick and what
// it answers.
type reply struct {
	target int
	err    error
}

// fakeTransport answers each attempt from a script on a virtual clock
// that only Sleep advances, and logs the targets and sleeps.
type fakeTransport struct {
	t       *testing.T
	n       int
	now     time.Duration
	script  []reply
	targets []int
	sleeps  []time.Duration
}

func (f *fakeTransport) Size() int          { return f.n }
func (f *fakeTransport) Now() time.Duration { return f.now }
func (f *fakeTransport) Sleep(_ context.Context, d time.Duration) {
	f.sleeps = append(f.sleeps, d)
	f.now += d
}

func (f *fakeTransport) next(i int) error {
	f.targets = append(f.targets, i)
	if len(f.script) == 0 {
		f.t.Fatalf("unscripted attempt on replica %d (targets so far %v)", i, f.targets)
	}
	r := f.script[0]
	f.script = f.script[1:]
	if r.target != i {
		f.t.Errorf("attempt %d went to replica %d, want %d", len(f.targets), i, r.target)
	}
	return r.err
}

func (f *fakeTransport) Submit(i int, _, _ uint64, _ []byte, _ time.Duration) ([]byte, readpath.Token, error) {
	if err := f.next(i); err != nil {
		return nil, readpath.Token{}, err
	}
	return []byte("ok"), readpath.Token{}, nil
}

func (f *fakeTransport) QueryLevel(i int, _ readpath.Level, tok readpath.Token, _ []byte, _ time.Duration) ([]byte, readpath.Token, error) {
	if err := f.next(i); err != nil {
		return nil, tok, err
	}
	return []byte("ok"), tok, nil
}

func (f *fakeTransport) Query(i int, _ []byte, _ time.Duration) ([]byte, error) {
	if err := f.next(i); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

func (f *fakeTransport) Reconfig(i int, _ Change, _ time.Duration) error { return f.next(i) }

// fakeRecorder logs how each operation was settled.
type fakeRecorder struct{ settled []string }

func (r *fakeRecorder) Invoke(uint64, []byte) uint64 { return 1 }
func (r *fakeRecorder) Return(uint64, []byte)        { r.settled = append(r.settled, "return") }
func (r *fakeRecorder) Timeout(uint64)               { r.settled = append(r.settled, "timeout") }
func (r *fakeRecorder) Discard(uint64)               { r.settled = append(r.settled, "discard") }

// backoff is the sentinel for "one jittered backoff step" in a want list.
const backoff = time.Duration(-1)

// TestLoopScript drives the loop through scripted replies and checks the
// replicas it tried, the sleeps between them, the retry budget, and how
// the operation was settled in the history.
func TestLoopScript(t *testing.T) {
	boom := errors.New("boom")
	cases := []struct {
		name    string
		read    bool // a QueryLevel at level instead of a write
		level   readpath.Level
		script  []reply
		timeout time.Duration
		wantErr error // nil: success
		sleeps  []time.Duration
		settled string // "" when the op is not recorded
		tokens  float64
	}{
		{name: "hint", script: []reply{{0, core.ErrNotPrimary{Leader: 2}}, {2, nil}},
			sleeps: []time.Duration{backoff}, settled: "return", tokens: budgetBurst},
		{name: "no hint", script: []reply{{0, core.ErrNotPrimary{Leader: -1}}, {1, nil}},
			sleeps: []time.Duration{backoff}, settled: "return", tokens: budgetBurst},
		{name: "shed with retry-after", script: []reply{{0, overload.Shed{RetryAfter: 7 * time.Millisecond}}, {0, nil}},
			sleeps: []time.Duration{7 * time.Millisecond}, settled: "return", tokens: budgetBurst - 1 + budgetRatio},
		{name: "shed without hint", script: []reply{{0, overload.Shed{}}, {0, nil}},
			sleeps: []time.Duration{maxPause}, settled: "return", tokens: budgetBurst - 1 + budgetRatio},
		{name: "deadline", script: []reply{{0, overload.ErrDeadlineExceeded}},
			wantErr: overload.ErrDeadlineExceeded, settled: "discard", tokens: budgetBurst},
		{name: "stale seq", script: []reply{{0, core.ErrStaleSeq}},
			wantErr: ErrPermanent, settled: "timeout", tokens: budgetBurst},
		{name: "stopped", script: []reply{{0, core.ErrStopped}, {1, overload.ErrDeadlineExceeded}},
			wantErr: overload.ErrDeadlineExceeded, sleeps: []time.Duration{backoff}, settled: "timeout", tokens: budgetBurst},
		{name: "unreachable", script: []reply{{0, ErrUnreachable}, {1, overload.ErrDeadlineExceeded}},
			wantErr: overload.ErrDeadlineExceeded, sleeps: []time.Duration{backoff}, settled: "discard", tokens: budgetBurst},
		{name: "unclassified write", script: []reply{{0, boom}, {1, nil}},
			sleeps: []time.Duration{backoff}, settled: "return", tokens: budgetBurst},
		{name: "permanent", script: []reply{{0, fmt.Errorf("%w: no such group", ErrPermanent)}},
			wantErr: ErrPermanent, settled: "discard", tokens: budgetBurst},
		{name: "call deadline", script: []reply{{0, core.ErrStopped}, {1, core.ErrStopped}}, timeout: 1500 * time.Microsecond,
			wantErr: core.ErrStopped, sleeps: []time.Duration{backoff, backoff}, settled: "timeout", tokens: budgetBurst},
		{name: "primary-only session read", read: true, level: readpath.Session,
			script: []reply{{2, readpath.ErrPrimaryOnly}, {0, nil}}, sleeps: []time.Duration{backoff}},
		{name: "unclassified read", read: true, script: []reply{{0, boom}},
			wantErr: boom, settled: "discard"},
		{name: "dead primary read", read: true,
			script: []reply{{0, ErrUnreachable}, {1, core.ErrStopped}, {2, nil}},
			sleeps: []time.Duration{backoff, backoff}, settled: "return"},
		{name: "lease wait read", read: true,
			script: []reply{{0, readpath.ErrLeaseWait}, {0, nil}}, sleeps: []time.Duration{backoff}, settled: "return"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ft := &fakeTransport{t: t, n: 3, script: tc.script}
			rec := &fakeRecorder{}
			c := New(ft, 7)
			c.Recorder = rec
			timeout := tc.timeout
			if timeout == 0 {
				timeout = time.Second
			}
			var err error
			if tc.read {
				_, err = c.QueryLevelTimeout(tc.level, []byte("r"), timeout)
			} else {
				_, err = c.DoTimeout([]byte("w"), timeout)
			}
			switch {
			case tc.wantErr == nil && err != nil:
				t.Fatalf("err = %v, want success", err)
			case tc.wantErr != nil && !errors.Is(err, tc.wantErr) && !errorsMention(err, tc.wantErr):
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if len(ft.script) != 0 {
				t.Errorf("%d scripted replies unused (targets %v)", len(ft.script), ft.targets)
			}
			if len(ft.sleeps) != len(tc.sleeps) {
				t.Fatalf("sleeps = %v, want %v", ft.sleeps, tc.sleeps)
			}
			for i, want := range tc.sleeps {
				got := ft.sleeps[i]
				if want == backoff {
					if got < minBackoff/2 || got > maxBackoff {
						t.Errorf("sleep %d = %v, want a backoff step", i, got)
					}
				} else if got != want {
					t.Errorf("sleep %d = %v, want %v", i, got, want)
				}
			}
			var settled []string
			if tc.settled != "" {
				settled = []string{tc.settled}
			}
			if !reflect.DeepEqual(rec.settled, settled) {
				t.Errorf("recorder settled %v, want %v", rec.settled, settled)
			}
			if !tc.read && c.budget.Tokens() != tc.tokens {
				t.Errorf("budget tokens = %v, want %v", c.budget.Tokens(), tc.tokens)
			}
		})
	}
}

// errorsMention reports whether err's message quotes want (the call
// deadline error quotes its last attempt's error instead of wrapping it).
func errorsMention(err, want error) bool {
	return err != nil && strings.HasSuffix(err.Error(), want.Error())
}

// TestLoopBudgetExhausts checks that only retries after a shed spend the
// retry budget, and that a dry budget abandons the call.
func TestLoopBudgetExhausts(t *testing.T) {
	script := make([]reply, budgetBurst+1)
	for i := range script {
		script[i] = reply{0, overload.Shed{RetryAfter: time.Millisecond}}
	}
	ft := &fakeTransport{t: t, n: 3, script: script}
	rec := &fakeRecorder{}
	c := New(ft, 7)
	c.Recorder = rec
	_, err := c.DoTimeout([]byte("w"), time.Minute)
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if c.BudgetExhausted != 1 {
		t.Errorf("BudgetExhausted = %d, want 1", c.BudgetExhausted)
	}
	if !reflect.DeepEqual(rec.settled, []string{"discard"}) {
		t.Errorf("recorder settled %v, want a discard: every attempt was shed", rec.settled)
	}
}

// TestLoopRemembersPrimary checks that a write's success moves the
// believed primary, so the next call starts there.
func TestLoopRemembersPrimary(t *testing.T) {
	ft := &fakeTransport{t: t, n: 3, script: []reply{{0, core.ErrNotPrimary{Leader: 1}}, {1, nil}, {1, nil}}}
	c := New(ft, 7)
	for i := 0; i < 2; i++ {
		if _, err := c.Do([]byte("w")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryKeepsPrimary checks that a local query on a secondary does not
// move the believed primary, and that it moves on past a down replica.
func TestQueryKeepsPrimary(t *testing.T) {
	ft := &fakeTransport{t: t, n: 3, script: []reply{{1, ErrUnreachable}, {2, nil}, {0, nil}}}
	c := New(ft, 7)
	if _, err := c.Query(1, []byte("q")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do([]byte("w")); err != nil {
		t.Fatal(err)
	}
}

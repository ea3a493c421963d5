package overload

import (
	"errors"
	"testing"
	"time"

	"rex/internal/wire"
)

func TestShedMatchesSentinel(t *testing.T) {
	err := error(Shed{RetryAfter: 5 * time.Millisecond})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatal("Shed does not match ErrOverloaded")
	}
	if got := RetryAfter(err); got != 5*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 5ms", got)
	}
	if got := RetryAfter(errors.New("other")); got != 0 {
		t.Fatalf("RetryAfter on foreign error = %v, want 0", got)
	}
	// Stable-string contract: the message must survive a round trip
	// through an opaque errors.New on the far side of the wire.
	far := errors.New(err.Error())
	if far.Error() != ErrOverloaded.Error() {
		t.Fatal("shed message not stable across the wire")
	}
}

func TestControllerArmsAfterInterval(t *testing.T) {
	c := NewController(Config{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond})
	now := time.Duration(0)
	// Above-target sojourns, but not yet for a full interval: no shedding.
	c.OnSojourn(now, 20*time.Millisecond)
	if c.ShouldShed(now) {
		t.Fatal("shed before interval elapsed")
	}
	now += 50 * time.Millisecond
	c.OnSojourn(now, 20*time.Millisecond)
	if c.Dropping() {
		t.Fatal("dropping before interval elapsed")
	}
	// Past the interval: dropping begins and the first queued arrival
	// is shed immediately.
	now += 60 * time.Millisecond
	c.OnSojourn(now, 20*time.Millisecond)
	if !c.Dropping() {
		t.Fatal("not dropping after a full above-target interval")
	}
	if !c.ShouldShed(now) {
		t.Fatal("first arrival in dropping state not shed")
	}
	// Immediately after, the next shed is scheduled in the future.
	if c.ShouldShed(now) {
		t.Fatal("second arrival shed with no time elapsed")
	}
	if c.Pressure() != PressureElevated {
		t.Fatalf("pressure = %d, want elevated", c.Pressure())
	}
}

func TestControllerShedRateIncreases(t *testing.T) {
	c := NewController(Config{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond})
	now := time.Duration(0)
	c.OnSojourn(now, 50*time.Millisecond)
	now += 100 * time.Millisecond
	c.OnSojourn(now, 50*time.Millisecond)
	if !c.Dropping() {
		t.Fatal("expected dropping")
	}
	// Walk time forward in small steps; the inter-shed gap must shrink.
	var gaps []time.Duration
	last := time.Duration(-1)
	for step := 0; step < 4000 && len(gaps) < 8; step++ {
		now += time.Millisecond
		if c.ShouldShed(now) {
			if last >= 0 {
				gaps = append(gaps, now-last)
			}
			last = now
		}
	}
	if len(gaps) < 4 {
		t.Fatalf("only %d sheds observed", len(gaps))
	}
	for i := 1; i < len(gaps); i++ {
		if gaps[i] > gaps[i-1] {
			t.Fatalf("shed gap grew: %v after %v", gaps[i], gaps[i-1])
		}
	}
	if c.Pressure() != PressureCritical {
		t.Fatalf("pressure = %d after %d sheds, want critical", c.Pressure(), len(gaps)+1)
	}
}

func TestControllerRecovers(t *testing.T) {
	c := NewController(Config{Target: 10 * time.Millisecond, Interval: 100 * time.Millisecond})
	now := time.Duration(0)
	c.OnSojourn(now, 50*time.Millisecond)
	now += 150 * time.Millisecond
	c.OnSojourn(now, 50*time.Millisecond)
	if !c.Dropping() {
		t.Fatal("expected dropping")
	}
	// One below-target sojourn ends the episode.
	c.OnSojourn(now, time.Millisecond)
	if c.Dropping() || c.ShouldShed(now+time.Hour) {
		t.Fatal("controller did not recover on below-target sojourn")
	}
	if c.Pressure() != PressureNone {
		t.Fatalf("pressure = %d, want none", c.Pressure())
	}
}

func TestControllerDefaults(t *testing.T) {
	c := NewController(Config{})
	if c.Target() != 25*time.Millisecond {
		t.Fatalf("default target %v", c.Target())
	}
	if ra := c.RetryAfter(); ra != 100*time.Millisecond {
		t.Fatalf("idle retry-after %v, want the interval", ra)
	}
}

func TestWireDeadlineRoundTrip(t *testing.T) {
	for _, budget := range []time.Duration{time.Millisecond, 17 * time.Millisecond, 3 * time.Second, MaxWireDeadline} {
		e := wire.NewEncoder(nil)
		AppendWireDeadline(e, budget)
		d := wire.NewDecoder(e.Bytes())
		got, err := DecodeWireDeadline(d)
		if err != nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		if got != budget.Truncate(time.Millisecond) {
			t.Fatalf("budget %v round-tripped to %v", budget, got)
		}
	}
}

func TestWireDeadlineAbsent(t *testing.T) {
	e := wire.NewEncoder(nil)
	AppendWireDeadline(e, 0)
	AppendWireDeadline(e, -time.Second)
	if len(e.Bytes()) != 0 {
		t.Fatal("non-positive budgets must encode nothing")
	}
	got, err := DecodeWireDeadline(wire.NewDecoder(nil))
	if err != nil || got != 0 {
		t.Fatalf("absent field: got %v, %v", got, err)
	}
}

func TestWireDeadlineSubMillisecondRoundsUp(t *testing.T) {
	e := wire.NewEncoder(nil)
	AppendWireDeadline(e, 10*time.Microsecond)
	got, err := DecodeWireDeadline(wire.NewDecoder(e.Bytes()))
	if err != nil || got != time.Millisecond {
		t.Fatalf("sub-ms budget: got %v, %v", got, err)
	}
}

func TestWireDeadlineRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"zero":      {0x00},
		"oversized": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge uvarint
		"truncated": {0x80},                                                       // continuation bit, no next byte
		"trailing":  {0x05, 0x99},                                                 // valid deadline + junk
		"beyond max by 1": func() []byte {
			e := wire.NewEncoder(nil)
			e.Uvarint(uint64(MaxWireDeadline/time.Millisecond) + 1)
			return e.Bytes()
		}(),
	}
	for name, buf := range cases {
		if _, err := DecodeWireDeadline(wire.NewDecoder(buf)); err == nil {
			t.Fatalf("%s: garbage accepted", name)
		}
	}
}

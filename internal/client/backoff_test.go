package client

import (
	"testing"
	"time"
)

// TestBackoffJitterBounds draws many samples and checks every one lands
// in [step/2, step] for the step in force when it was drawn.
func TestBackoffJitterBounds(t *testing.T) {
	b := NewBackoff(time.Millisecond, 25*time.Millisecond, 42)
	for i := 0; i < 1000; i++ {
		step := b.Cur()
		d := b.Next()
		if d < step/2 || d > step {
			t.Fatalf("sample %d: got %v, want within [%v, %v]", i, d, step/2, step)
		}
	}
}

// TestBackoffDoublesAndCaps checks the pre-jitter step doubles each call
// and saturates at Max.
func TestBackoffDoublesAndCaps(t *testing.T) {
	b := NewBackoff(time.Millisecond, 25*time.Millisecond, 1)
	want := time.Millisecond
	for i := 0; i < 10; i++ {
		if got := b.Cur(); got != want {
			t.Fatalf("step %d: cur %v, want %v", i, got, want)
		}
		b.Next()
		want *= 2
		if want > 25*time.Millisecond {
			want = 25 * time.Millisecond
		}
	}
	// Stays pinned at the cap.
	for i := 0; i < 100; i++ {
		if d := b.Next(); d > 25*time.Millisecond {
			t.Fatalf("capped sample exceeded max: %v", d)
		}
	}
	if b.Cur() != 25*time.Millisecond {
		t.Fatalf("cur %v, want cap", b.Cur())
	}
}

func TestBackoffReset(t *testing.T) {
	b := NewBackoff(time.Millisecond, 25*time.Millisecond, 7)
	for i := 0; i < 6; i++ {
		b.Next()
	}
	b.Reset()
	if b.Cur() != time.Millisecond {
		t.Fatalf("after reset cur %v, want %v", b.Cur(), time.Millisecond)
	}
}

// TestBackoffDeterministic: same seed, same schedule (the simulator and
// pinned-seed chaos runs rely on this).
func TestBackoffDeterministic(t *testing.T) {
	a := NewBackoff(time.Millisecond, 25*time.Millisecond, 99)
	b := NewBackoff(time.Millisecond, 25*time.Millisecond, 99)
	for i := 0; i < 64; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("sample %d diverged: %v vs %v", i, x, y)
		}
	}
}

func TestBackoffDegenerateBounds(t *testing.T) {
	b := NewBackoff(0, -time.Second, 3)
	if d := b.Next(); d <= 0 || d > time.Millisecond {
		t.Fatalf("degenerate bounds produced %v", d)
	}
}

func TestBudgetExhaustsAndRefills(t *testing.T) {
	b := NewBudget(0.5, 4)
	// Starts full: four retries allowed, then dry.
	for i := 0; i < 4; i++ {
		if !b.Allow() {
			t.Fatalf("retry %d refused with %v tokens", i, b.Tokens())
		}
	}
	if b.Allow() {
		t.Fatal("allowed retry on empty budget")
	}
	// Two successes earn one token.
	b.Success()
	if b.Allow() {
		t.Fatal("half a token should not allow a retry")
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("one full token should allow a retry")
	}
	// Earnings cap at Burst.
	for i := 0; i < 100; i++ {
		b.Success()
	}
	if b.Tokens() > 4 {
		t.Fatalf("tokens %v exceed burst", b.Tokens())
	}
}

func TestBudgetZeroRatioNeverRefills(t *testing.T) {
	b := NewBudget(0, 2)
	b.Allow()
	b.Allow()
	b.Success()
	b.Success()
	if b.Allow() {
		t.Fatal("zero-ratio budget refilled")
	}
}

package client

// This file holds the client-side pieces of overload protection: a
// jittered exponential backoff schedule and a token-bucket retry budget.
// Neither type is safe for concurrent use — each client or router owns
// its own instances, which keeps them free of locks and therefore
// deterministic under the simulator.

import (
	"errors"
	"math/rand"
	"time"
)

// ErrBudgetExhausted is returned by clients when the retry budget ran
// dry: enough consecutive failures accumulated that further retries
// would only amplify the outage. The original request's outcome is
// unknown — callers must treat it like a timeout, not a definite
// failure.
var ErrBudgetExhausted = errors.New("client: retry budget exhausted")

// Backoff produces a jittered exponential backoff schedule: each Next
// returns a duration drawn uniformly from [cur/2, cur], then doubles
// cur up to Max. Reset restores cur to Min (e.g. after a success or a
// redirect to a fresh target).
type Backoff struct {
	Min time.Duration
	Max time.Duration

	cur time.Duration
	rng *rand.Rand
}

// NewBackoff returns a backoff schedule over [min, max], seeded
// deterministically (pass a per-client seed so concurrent clients
// don't sleep in lockstep).
func NewBackoff(min, max time.Duration, seed int64) *Backoff {
	if min <= 0 {
		min = time.Millisecond
	}
	if max < min {
		max = min
	}
	return &Backoff{Min: min, Max: max, cur: min, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next sleep duration: uniform in [cur/2, cur], then
// doubles cur, saturating at Max.
func (b *Backoff) Next() time.Duration {
	if b.cur < b.Min {
		b.cur = b.Min
	}
	cur := b.cur
	d := cur/2 + time.Duration(b.rng.Int63n(int64(cur/2)+1))
	b.cur = cur * 2
	if b.cur > b.Max || b.cur < 0 {
		b.cur = b.Max
	}
	return d
}

// Reset restores the schedule to its minimum.
func (b *Backoff) Reset() { b.cur = b.Min }

// Cur exposes the current (pre-jitter) step, mostly for tests.
func (b *Backoff) Cur() time.Duration { return b.cur }

// Budget is a token-bucket retry budget: first attempts are always
// free, retries each consume one token, and successes earn Ratio
// tokens back (capped at Burst). Under a sustained outage the bucket
// drains and retries are refused, so a failing fleet offers at most
// (1 + Ratio) times its success rate instead of its attempt cap times its
// arrival rate.
type Budget struct {
	// Ratio is the number of tokens earned per success. 0.5 bounds
	// steady-state retry amplification at 1.5x.
	Ratio float64
	// Burst caps the bucket, bounding how many back-to-back retries a
	// previously healthy client may issue when an outage starts.
	Burst float64

	tokens float64
}

// NewBudget returns a full budget (tokens = burst, so cold-start
// retries work) with the given earn ratio and cap.
func NewBudget(ratio, burst float64) *Budget {
	if ratio < 0 {
		ratio = 0
	}
	if burst <= 0 {
		burst = 1
	}
	return &Budget{Ratio: ratio, Burst: burst, tokens: burst}
}

// Allow reports whether a retry may proceed, consuming one token if so.
func (b *Budget) Allow() bool {
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Success credits the budget for a completed request.
func (b *Budget) Success() {
	b.tokens += b.Ratio
	if b.tokens > b.Burst {
		b.tokens = b.Burst
	}
}

// Tokens exposes the current balance, mostly for tests.
func (b *Budget) Tokens() float64 { return b.tokens }

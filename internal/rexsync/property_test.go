package rexsync

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"rex/internal/sched"
	"rex/internal/trace"
)

// TestQuickRandomScriptsRecordReplayEquivalence is the package's core
// property: for ANY randomly generated concurrent program over the Rex
// primitives, replaying the recorded trace on fresh state reproduces the
// recorded execution's final state exactly (§2.2's determinism property).
func TestQuickRandomScriptsRecordReplayEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		nWorkers := 2 + int(uint64(seed)%4) // 2..5
		scripts := randomScripts(seed, nWorkers)
		tr, want, _ := recordRun(t, 4, nWorkers, scripts)
		if !tr.IsConsistent(tr.Cut()) {
			t.Logf("seed %d: inconsistent trace at rest", seed)
			return false
		}
		got := replayRun(t, 4, nWorkers, tr, scripts)
		if got != want {
			t.Logf("seed %d diverged:\nrecord: %s\nreplay: %s", seed, want, got)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randomScripts builds one deterministic random op sequence per worker
// over the shared world's primitives.
func randomScripts(seed int64, nWorkers int) []script {
	scripts := make([]script, nWorkers)
	for i := range scripts {
		id := i
		scripts[i] = func(w *sched.Worker, wl *world) {
			// Fresh deterministic randomness per invocation: the same
			// script must behave identically when re-run for replay.
			rng := rand.New(rand.NewSource(seed ^ int64(id)<<16))
			ops := 10 + rng.Intn(25)
			held := map[int]bool{} // which of lockA(0)/lockB(1) we hold
			rw := 0                // 0 none, 1 read, 2 write
			semHeld := 0
			locks := []*Lock{wl.lockA, wl.lockB}
			for j := 0; j < ops; j++ {
				switch rng.Intn(10) {
				case 0, 1: // mutex lock/unlock pair around a mutation
					k := rng.Intn(2)
					if !held[k] {
						locks[k].Lock(w)
						wl.log = append(wl.log, fmt.Sprintf("%d.%d", id, j))
						locks[k].Unlock(w)
					}
				case 2: // trylock
					k := rng.Intn(2)
					if !held[k] && locks[k].TryLock(w) {
						wl.counter++
						locks[k].Unlock(w)
					}
				case 3: // rwlock read
					if rw == 0 {
						wl.rw.RLock(w)
						v := wl.shared
						wl.rw.RUnlock(w)
						wl.lockB.Lock(w)
						wl.reads = append(wl.reads, v)
						wl.lockB.Unlock(w)
					}
				case 4: // rwlock write
					if rw == 0 {
						wl.rw.Lock(w)
						wl.shared++
						wl.rw.Unlock(w)
					}
				case 5: // semaphore
					if semHeld == 0 {
						wl.sem.Acquire(w)
						wl.sem.Release(w)
					}
				case 6: // cond-guarded queue producer
					wl.lockA.Lock(w)
					wl.queue = append(wl.queue, id*100+j)
					wl.cond.Signal(w)
					wl.lockA.Unlock(w)
				case 7: // cond-guarded queue consumer (non-blocking check)
					wl.lockA.Lock(w)
					if len(wl.queue) > 0 {
						wl.queue = wl.queue[1:]
					}
					wl.lockA.Unlock(w)
				case 8: // recorded nondeterministic value
					// Draw from the script rng BEFORE Value: replay skips
					// the compute closure, and the script's control-flow
					// randomness must advance identically either way.
					v0 := rng.Uint64()
					v := Value(w, 3, func() uint64 { return v0 })
					wl.lockB.Lock(w)
					wl.counter += int(v % 7)
					wl.lockB.Unlock(w)
				case 9: // compute to shift interleavings
					w.Runtime().Env.Compute(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}
	}
	return scripts
}

// TestQuickDeltaSplitsReplayIdentically: splitting the same recording into
// a different number of deltas must not change replay behaviour (the agree
// stage may cut proposals anywhere).
func TestQuickDeltaSplitsReplayIdentically(t *testing.T) {
	scripts := randomScripts(1234, 3)
	tr, want, _ := recordRun(t, 4, 3, scripts)
	_ = tr
	// Re-record collecting multiple deltas mid-run is covered by
	// TestPromotionMidStream; here we verify replay from a re-encoded
	// trace: encode the full trace as one delta, decode, replay.
	d := wholeDelta(tr)
	decoded, err := trace.DecodeDeltaBytes(d.EncodeBytes())
	if err != nil {
		t.Fatal(err)
	}
	tr2 := trace.New(3)
	if err := tr2.Apply(decoded); err != nil {
		t.Fatal(err)
	}
	got := replayRun(t, 4, 3, tr2, scripts)
	if got != want {
		t.Fatalf("replay from re-encoded trace diverged:\n%s\n%s", want, got)
	}
}

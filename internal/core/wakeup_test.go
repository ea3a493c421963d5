package core_test

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/sched"
	"rex/internal/sim"
)

// classedTKV is tkv with conflict classes: a request's class is its last
// byte's digit, so "put k 1" and "put k 3" both run on worker 1 of two.
type classedTKV struct{ *tkv }

func (classedTKV) ClassifyConflict(req []byte) core.ConflictClass {
	return core.ConflictClass(req[len(req)-1] - '0')
}

// TestAdmissionWakesOnlyItsWorker pins the primary's worker wake-ups: an
// admission for class k wakes worker k % Workers and no other, and
// neither the response release nor the commit that allows it wakes an
// idle worker. Each request then costs its worker exactly one sleep.
func TestAdmissionWakesOnlyItsWorker(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.Workers = 2
		opts.Template.ReadWorkers = 0
		opts.Template.MaxLogBytesWithoutCheckpoint = -1 // no checkpoint pauses
		c := cluster.New(e, func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
			return classedTKV{newTKV(rt, host).(*tkv)}
		}, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put warm 1")); err != nil {
			t.Fatal(err)
		}
		e.Sleep(10 * time.Millisecond)
		rp := c.Replica(p)
		w0, w1 := rp.WorkerWaits(0), rp.WorkerWaits(1)
		const n = 10
		for i := 0; i < n; i++ {
			body := fmt.Sprintf("put k%d %d", i, 1+2*(i%2)) // classes 1 and 3
			if _, err := cl.Do([]byte(body)); err != nil {
				t.Fatal(err)
			}
		}
		e.Sleep(10 * time.Millisecond)
		if d := rp.WorkerWaits(0) - w0; d != 0 {
			t.Errorf("worker 0 slept %d more times, want 0: it was woken for work it does not own", d)
		}
		if d := rp.WorkerWaits(1) - w1; d != n {
			t.Errorf("worker 1 slept %d times for %d requests, want one sleep each", d, n)
		}
		c.Stop()
	})
}

// TestCheckpointFloorCountsBytes pins the log-growth floor's unit: many
// small committed instances that add up to less than the floor's bytes
// force no checkpoint, and one delta past it forces exactly one.
func TestCheckpointFloorCountsBytes(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		const floor = 16 << 10
		opts := defaultOpts()
		opts.Template.CheckpointEvery = 0
		opts.Template.MaxLogBytesWithoutCheckpoint = floor
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rp := c.Replica(p)
		start := rp.Stats().Applied
		cl := c.NewClient(1)
		for i := 0; i < 60; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put k%d v", i))); err != nil {
				t.Fatal(err)
			}
		}
		e.Sleep(100 * time.Millisecond)
		floorCkpts := func() uint64 { return rp.Metrics().Counter("rex_checkpoint_floor_total") }
		if st := rp.Stats(); st.Applied-start < 60 || st.BytesCommitted >= floor {
			t.Fatalf("small writes: %d instances, %d bytes; want at least 60 instances under %d bytes",
				st.Applied-start, st.BytesCommitted, floor)
		}
		if n := floorCkpts(); n != 0 {
			t.Fatalf("%d floor checkpoints below the floor's bytes, want 0", n)
		}
		big := make([]byte, floor)
		for i := range big {
			big[i] = 'x'
		}
		if _, err := cl.Do([]byte("put big " + string(big))); err != nil {
			t.Fatal(err)
		}
		e.Sleep(200 * time.Millisecond)
		if n := floorCkpts(); n != 1 {
			t.Fatalf("%d floor checkpoints after one delta past the floor, want 1", n)
		}
		c.Stop()
	})
}

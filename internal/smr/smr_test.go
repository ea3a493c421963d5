package smr

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"rex/internal/apps"
	"rex/internal/env"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/transport"
)

func startCluster(t *testing.T, e *sim.Env, app apps.App) []*Replica {
	t.Helper()
	const n = 3
	net := transport.NewNetwork(e, n, 500*time.Microsecond, 5)
	var reps []*Replica
	for i := 0; i < n; i++ {
		log, _ := storage.OpenLog(e, storage.NewMemDisk(), "wal", true)
		r, err := NewReplica(Config{
			ID: i, N: n, Env: e,
			Endpoint:        net.Endpoint(i),
			Log:             log,
			Factory:         app.Factory,
			Timers:          app.Timers,
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
			Seed:            5,
		})
		if err != nil {
			t.Fatalf("replica %d: %v", i, err)
		}
		r.Start()
		reps = append(reps, r)
	}
	return reps
}

func waitLeader(t *testing.T, e *sim.Env, reps []*Replica) int {
	t.Helper()
	deadline := e.Now() + 5*time.Second
	for e.Now() < deadline {
		for i, r := range reps {
			if r.IsLeader() {
				return i
			}
		}
		e.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no SMR leader elected")
	return -1
}

func TestSMRReplicatesSequentially(t *testing.T) {
	e := sim.New(4)
	e.Run(func() {
		app := apps.LSMKV()
		reps := startCluster(t, e, app)
		lead := waitLeader(t, e, reps)
		g := env.NewGroup(e)
		for cid := 0; cid < 3; cid++ {
			cid := cid
			g.Add(1)
			e.Go("client", func() {
				defer g.Done()
				wl := app.NewWorkload(int64(cid + 1))
				for i := 0; i < 20; i++ {
					if _, err := reps[lead].Submit(uint64(cid+1), uint64(i+1), wl.Next()); err != nil {
						t.Errorf("submit: %v", err)
						return
					}
				}
			})
		}
		g.Wait()
		// All replicas execute the same total order; wait for followers to
		// drain and compare serialized state.
		deadline := e.Now() + 10*time.Second
		for e.Now() < deadline {
			if reps[0].Executed() == 60 && reps[1].Executed() == 60 && reps[2].Executed() == 60 {
				break
			}
			e.Sleep(10 * time.Millisecond)
		}
		var states []string
		for _, r := range reps {
			var buf bytes.Buffer
			if err := r.sm.WriteCheckpoint(&buf); err != nil {
				t.Fatal(err)
			}
			states = append(states, buf.String())
		}
		if states[0] != states[1] || states[1] != states[2] {
			t.Error("SMR replicas diverged")
		}
		for _, r := range reps {
			r.Stop()
		}
	})
}

func TestSMRDedup(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		app := apps.HashDB()
		reps := startCluster(t, e, app)
		lead := waitLeader(t, e, reps)
		body := []byte(fmt.Sprintf("%c%s", 1, "k"))
		_ = body
		wl := app.NewWorkload(9)
		req := wl.Next()
		if _, err := reps[lead].Submit(7, 1, req); err != nil {
			t.Fatal(err)
		}
		before := reps[lead].Executed()
		// Re-executing the same (client, seq) must be suppressed.
		reps[lead].Submit(7, 1, req)
		e.Sleep(50 * time.Millisecond)
		// The duplicate may block forever waiting for a response that was
		// already delivered and dropped — but it must not RE-EXECUTE.
		if got := reps[lead].Executed(); got != before {
			t.Errorf("duplicate executed: %d -> %d", before, got)
		}
		for _, r := range reps {
			r.Stop()
		}
	})
}

func TestSMRFollowerRejectsSubmit(t *testing.T) {
	e := sim.New(2)
	e.Run(func() {
		app := apps.Thumbnail()
		reps := startCluster(t, e, app)
		lead := waitLeader(t, e, reps)
		follower := (lead + 1) % 3
		if _, err := reps[follower].Submit(1, 1, app.NewWorkload(1).Next()); err != ErrNotLeader {
			t.Errorf("follower Submit err = %v, want ErrNotLeader", err)
		}
		for _, r := range reps {
			r.Stop()
		}
	})
}

package cluster_test

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/wire"
)

// ledger is an order-sensitive state machine: any disagreement in apply
// order or a lost/duplicated entry across restarts shows up as a
// byte-level state divergence.
type ledger struct {
	mu      *rexsync.Lock
	entries []string
}

func newLedger() core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		return &ledger{mu: rexsync.NewLock(rt, "ledger")}
	}
}

func (l *ledger) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	ctx.Compute(50 * time.Microsecond)
	l.mu.Lock(w)
	l.entries = append(l.entries, string(req))
	l.mu.Unlock(w)
	return []byte{1}
}

func (l *ledger) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	e.Uvarint(uint64(len(l.entries)))
	for _, s := range l.entries {
		e.BytesVal([]byte(s))
	}
	_, err := w.Write(e.Bytes())
	return err
}

func (l *ledger) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	n := d.Uvarint()
	l.entries = nil
	for i := uint64(0); i < n; i++ {
		l.entries = append(l.entries, string(d.BytesVal()))
	}
	return d.Err()
}

// TestRepeatedRestartCycles crashes and restarts replicas — including the
// primary, forcing an election and a promotion each cycle — while clients
// keep writing, with checkpointing enabled so restarts recover from a
// snapshot plus WAL tail (and may have to bridge a compaction gap). After
// the churn the replicas must converge on one state and satisfy the
// prefix property.
func TestRepeatedRestartCycles(t *testing.T) {
	const cycles = 3
	e := sim.New(4)
	var failure string
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				CheckpointEvery: 150 * time.Millisecond,
				Seed:            7,
			},
		})
		if err := c.Start(); err != nil {
			failure = fmt.Sprintf("start: %v", err)
			return
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			failure = err.Error()
			return
		}

		var done bool
		var sent int
		load := env.GoEach(e, "restart-client", 2, func(ci int) {
			cl := c.NewClient(uint64(40 + ci))
			for k := 0; !done; k++ {
				if _, err := cl.DoTimeout([]byte(fmt.Sprintf("c%d-n%d", ci, k)), 10*time.Second); err != nil {
					failure = fmt.Sprintf("client %d op %d: %v", ci, k, err)
					return
				}
				sent++
				e.Sleep(3 * time.Millisecond)
			}
		})

		for cycle := 0; cycle < cycles && failure == ""; cycle++ {
			e.Sleep(250 * time.Millisecond)
			// Kill the primary: the survivors must elect and promote a new
			// one while the clients fail over to it.
			p := c.Primary()
			if p < 0 {
				failure = fmt.Sprintf("cycle %d: no primary", cycle)
				break
			}
			c.Crash(p)
			np, err := c.WaitPrimary(5 * time.Second)
			if err != nil {
				failure = fmt.Sprintf("cycle %d after crashing primary %d: %v", cycle, p, err)
				break
			}
			e.Sleep(100 * time.Millisecond)
			if err := c.Restart(p); err != nil {
				failure = fmt.Sprintf("cycle %d restarting %d: %v", cycle, p, err)
				break
			}
			e.Sleep(250 * time.Millisecond)
			// Bounce a secondary too, so recovery runs from a snapshot that
			// is not the promotion point.
			sec := -1
			for i := range c.Replicas {
				if i != np && c.Replicas[i] != nil {
					sec = i
					break
				}
			}
			if sec >= 0 {
				c.Crash(sec)
				e.Sleep(150 * time.Millisecond)
				if err := c.Restart(sec); err != nil {
					failure = fmt.Sprintf("cycle %d restarting secondary %d: %v", cycle, sec, err)
					break
				}
			}
		}
		done = true
		load.Wait()
		if failure != "" {
			return
		}
		if sent == 0 {
			failure = "no operations completed"
			return
		}

		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		for i, ferr := range faults {
			failure = fmt.Sprintf("replica %d faulted: %v", i, ferr)
			return
		}
		if len(states) != 3 {
			failure = fmt.Sprintf("only %d replicas alive after churn", len(states))
			return
		}
		if v := check.StateAgreement(states); len(v) != 0 {
			failure = v[0]
			return
		}
		var logs []check.ChosenLog
		for i, r := range c.Replicas {
			if r == nil {
				continue
			}
			base, vals := r.ChosenLog()
			logs = append(logs, check.ChosenLog{Replica: i, Base: base, Vals: vals})
		}
		if v := check.CheckPrefix(logs); len(v) != 0 {
			failure = v[0]
			return
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestWALFaultRestartFromDisk arms a write fault under the primary's WAL
// while clients write: the primary crash-stops on it. Chosen records ride
// the next forced WAL flush, so the log it recovers from its disk may be
// shorter than the one its crash-stopped node reported, but must agree
// with it; once rejoined, it must learn back at least as far within a
// bounded wait and converge with the others.
func TestWALFaultRestartFromDisk(t *testing.T) {
	e := sim.New(4)
	var failure string
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				Seed:            11,
			},
		})
		if err := c.Start(); err != nil {
			failure = fmt.Sprintf("start: %v", err)
			return
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		var done bool
		load := env.GoEach(e, "fault-client", 2, func(ci int) {
			cl := c.NewClient(uint64(60 + ci))
			for k := 0; !done; k++ {
				if _, err := cl.DoTimeout([]byte(fmt.Sprintf("c%d-n%d", ci, k)), 10*time.Second); err != nil {
					failure = fmt.Sprintf("client %d op %d: %v", ci, k, err)
					return
				}
				e.Sleep(3 * time.Millisecond)
			}
		})
		e.Sleep(200 * time.Millisecond)
		c.Disks[p].FailWrites("wal", 1)
		for c.Replica(p).Role() != core.RoleFaulted {
			e.Sleep(time.Millisecond)
		}
		if err := c.Replica(p).FaultError(); !errors.Is(err, storage.ErrInjected) {
			failure = fmt.Sprintf("primary %d faulted with %v, want the injected write error", p, err)
			return
		}
		base, chosen := c.Replica(p).ChosenLog()
		if len(chosen) == 0 {
			failure = "the crash-stopped primary reports nothing chosen"
			return
		}
		c.Crash(p)
		c.Disks[p].FailWrites("", 0)
		if err := c.Restart(p); err != nil {
			failure = fmt.Sprintf("restart: %v", err)
			return
		}
		rbase, recovered := c.Replica(p).ChosenLog()
		if err := check.CheckPrefix([]check.ChosenLog{
			{Replica: p, Base: base, Vals: chosen},
			{Replica: p, Base: rbase, Vals: recovered},
		}); len(err) != 0 {
			failure = fmt.Sprintf("recovered chosen log [%d, +%d) disagrees with [%d, +%d): %v",
				rbase, len(recovered), base, len(chosen), err)
			return
		}
		for deadline := e.Now() + 2*time.Second; ; e.Sleep(10 * time.Millisecond) {
			rbase, recovered = c.Replica(p).ChosenLog()
			if rbase+uint64(len(recovered)) >= base+uint64(len(chosen)) {
				break
			}
			if e.Now() > deadline {
				failure = fmt.Sprintf("restarted replica's chosen log [%d, +%d) never reached [%d, +%d)",
					rbase, len(recovered), base, len(chosen))
				return
			}
		}
		if err := check.CheckPrefix([]check.ChosenLog{
			{Replica: p, Base: base, Vals: chosen},
			{Replica: p, Base: rbase, Vals: recovered},
		}); len(err) != 0 {
			failure = fmt.Sprintf("relearned chosen log disagrees with the one before the crash: %v", err)
			return
		}
		e.Sleep(300 * time.Millisecond)
		done = true
		load.Wait()
		if failure != "" {
			return
		}
		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		if len(faults) != 0 || len(states) != 3 {
			failure = fmt.Sprintf("after the restart: %d live states, faults %v", len(states), faults)
			return
		}
		if v := check.StateAgreement(states); len(v) != 0 {
			failure = v[0]
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

// TestPowerLossOnEveryReplica cuts the power to all three replicas' disks
// at once while clients write, then restarts every replica from what its
// disk kept. Chosen records ride the next forced WAL flush, so each may
// recover a shorter chosen log than it had; the accepted records a quorum
// forced before acknowledging must bring every acknowledged write back.
func TestPowerLossOnEveryReplica(t *testing.T) {
	e := sim.New(4)
	var failure string
	e.Run(func() {
		c := cluster.New(e, newLedger(), cluster.Options{
			Replicas: 3,
			Template: core.Config{
				Workers:         2,
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				StatusEvery:     20 * time.Millisecond,
				CheckpointEvery: 150 * time.Millisecond,
				Seed:            13,
			},
		})
		if err := c.Start(); err != nil {
			failure = fmt.Sprintf("start: %v", err)
			return
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			failure = err.Error()
			return
		}
		var done bool
		var acked []string
		load := env.GoEach(e, "power-client", 2, func(ci int) {
			cl := c.NewClient(uint64(80 + ci))
			for k := 0; !done; k++ {
				entry := fmt.Sprintf("<c%d-n%d>", ci, k)
				if _, err := cl.DoTimeout([]byte(entry), 10*time.Second); err == nil {
					acked = append(acked, entry)
				}
				e.Sleep(3 * time.Millisecond)
			}
		})
		e.Sleep(400 * time.Millisecond)
		before := len(acked)
		for i := 0; i < 3; i++ {
			c.Disks[i].Crash(0)
		}
		for i := 0; i < 3; i++ {
			c.Crash(i)
		}
		for i := 0; i < 3; i++ {
			if err := c.Restart(i); err != nil {
				failure = fmt.Sprintf("restart %d: %v", i, err)
				return
			}
		}
		e.Sleep(500 * time.Millisecond)
		done = true
		load.Wait()
		if before == 0 || len(acked) == before {
			failure = fmt.Sprintf("%d writes acknowledged before the power loss and %d after", before, len(acked)-before)
			return
		}
		states, faults, err := c.StableStates(30 * time.Second)
		if err != nil {
			failure = err.Error()
			return
		}
		if len(faults) != 0 || len(states) != 3 {
			failure = fmt.Sprintf("after the restarts: %d live states, faults %v", len(states), faults)
			return
		}
		if v := check.StateAgreement(states); len(v) != 0 {
			failure = v[0]
			return
		}
		for _, entry := range acked {
			if !strings.Contains(states[0], entry) {
				failure = fmt.Sprintf("acknowledged write %s lost in the power loss (%d acknowledged)", entry, len(acked))
				return
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
}

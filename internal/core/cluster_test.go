package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/wire"
)

// tkv is the integration-test state machine: a sharded map plus a staging
// buffer flushed by a background timer, coordinated entirely with rexsync
// primitives.
type tkv struct {
	shards []*rexsync.Lock
	data   []map[string]string

	metaLock *rexsync.Lock
	staging  []string
	flushed  []string
}

const tkvShards = 4

func newTKV(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
	s := &tkv{}
	for i := 0; i < tkvShards; i++ {
		s.shards = append(s.shards, rexsync.NewLock(rt, fmt.Sprintf("shard-%d", i)))
		s.data = append(s.data, make(map[string]string))
	}
	s.metaLock = rexsync.NewLock(rt, "meta")
	host.AddTimer("flush", 20*time.Millisecond, s.flush)
	return s
}

func (s *tkv) shard(k string) int {
	h := 0
	for i := 0; i < len(k); i++ {
		h = h*31 + int(k[i])
	}
	if h < 0 {
		h = -h
	}
	return h % tkvShards
}

func (s *tkv) flush(ctx *core.Ctx) {
	w := ctx.Worker()
	s.metaLock.Lock(w)
	if len(s.staging) > 0 {
		s.flushed = append(s.flushed, s.staging...)
		s.staging = nil
	}
	s.metaLock.Unlock(w)
}

func (s *tkv) Apply(ctx *core.Ctx, req []byte) []byte {
	w := ctx.Worker()
	parts := strings.SplitN(string(req), " ", 3)
	switch parts[0] {
	case "put":
		k, v := parts[1], parts[2]
		sh := s.shard(k)
		s.shards[sh].Lock(w)
		s.data[sh][k] = v
		s.shards[sh].Unlock(w)
		return []byte("ok")
	case "get":
		k := parts[1]
		sh := s.shard(k)
		s.shards[sh].Lock(w)
		v := s.data[sh][k]
		s.shards[sh].Unlock(w)
		return []byte(v)
	case "add":
		k := parts[1]
		n, _ := strconv.Atoi(parts[2])
		sh := s.shard(k)
		s.shards[sh].Lock(w)
		cur, _ := strconv.Atoi(s.data[sh][k])
		cur += n
		s.data[sh][k] = strconv.Itoa(cur)
		out := cur
		s.shards[sh].Unlock(w)
		return []byte(strconv.Itoa(out))
	case "stage":
		s.metaLock.Lock(w)
		s.staging = append(s.staging, parts[1])
		s.metaLock.Unlock(w)
		return []byte("staged")
	case "work":
		// Compute-heavy request to exercise parallelism.
		ctx.Compute(500 * time.Microsecond)
		k := parts[1]
		sh := s.shard(k)
		s.shards[sh].Lock(w)
		s.data[sh][k] = "worked"
		s.shards[sh].Unlock(w)
		return []byte("done")
	}
	return []byte("bad request")
}

func (s *tkv) Query(ctx *core.Ctx, q []byte) []byte {
	w := ctx.Worker()
	parts := strings.SplitN(string(q), " ", 2)
	if parts[0] != "get" || len(parts) != 2 {
		return []byte("bad query")
	}
	k := parts[1]
	sh := s.shard(k)
	s.shards[sh].Lock(w)
	v := s.data[sh][k]
	s.shards[sh].Unlock(w)
	return []byte(v)
}

// ClassifyQuery marks gets as safe for secondaries; everything else
// stays primary-only.
func (s *tkv) ClassifyQuery(q []byte) core.QueryClass {
	if strings.HasPrefix(string(q), "get ") {
		return core.QueryFollowerOK
	}
	return core.QueryPrimaryOnly
}

func (s *tkv) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	for _, m := range s.data {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Uvarint(uint64(len(keys)))
		for _, k := range keys {
			e.String(k)
			e.String(m[k])
		}
	}
	e.Uvarint(uint64(len(s.staging)))
	for _, v := range s.staging {
		e.String(v)
	}
	e.Uvarint(uint64(len(s.flushed)))
	for _, v := range s.flushed {
		e.String(v)
	}
	_, err := w.Write(e.Bytes())
	return err
}

func (s *tkv) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	for i := range s.data {
		n := d.Uvarint()
		s.data[i] = make(map[string]string)
		for j := uint64(0); j < n; j++ {
			k := d.String()
			s.data[i][k] = d.String()
		}
	}
	s.staging = nil
	for j, n := uint64(0), d.Uvarint(); j < n; j++ {
		s.staging = append(s.staging, d.String())
	}
	s.flushed = nil
	for j, n := uint64(0), d.Uvarint(); j < n; j++ {
		s.flushed = append(s.flushed, d.String())
	}
	return d.Err()
}

// stateOf serializes a replica's application state for comparison.
func stateOf(t *testing.T, r *core.Replica) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.StateMachineForTest().WriteCheckpoint(&buf); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	return buf.String()
}

// waitConverged waits until every live replica reports the same stable
// application state.
func waitConverged(t *testing.T, e env.Env, c *cluster.Cluster, timeout time.Duration) string {
	t.Helper()
	deadline := e.Now() + timeout
	var last string
	stable := 0
	for e.Now() < deadline {
		states := make(map[string]bool)
		all := true
		var s string
		for _, r := range c.Replicas {
			if r == nil {
				continue
			}
			if r.Role() == core.RoleFaulted {
				t.Fatalf("replica faulted: %v", r.FaultError())
			}
			s = stateOf(t, r)
			states[s] = true
		}
		if len(states) == 1 && all {
			if s == last {
				stable++
				if stable >= 3 {
					return s
				}
			} else {
				stable = 0
				last = s
			}
		} else {
			stable = 0
			last = ""
		}
		e.Sleep(20 * time.Millisecond)
	}
	for i, r := range c.Replicas {
		if r != nil {
			t.Logf("replica %d (%v): stats %+v", i, r.Role(), r.Stats())
		}
	}
	t.Fatal("cluster did not converge in time")
	return ""
}

func defaultOpts() cluster.Options {
	return cluster.Options{
		Replicas: 3,
		Template: core.Config{
			Workers:         4,
			Timers:          1,
			ReadWorkers:     2,
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
			StatusEvery:     20 * time.Millisecond,
			Seed:            11,
		},
	}
}

func TestClusterBasicReplication(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatalf("start: %v", err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		g := env.NewGroup(e)
		for cid := 0; cid < 4; cid++ {
			cid := cid
			g.Add(1)
			e.Go("client", func() {
				defer g.Done()
				cl := c.NewClient(uint64(cid + 1))
				for i := 0; i < 25; i++ {
					key := fmt.Sprintf("k%d-%d", cid, i)
					resp, err := cl.Do([]byte("put " + key + " v" + strconv.Itoa(i)))
					if err != nil {
						t.Errorf("put: %v", err)
						return
					}
					if string(resp) != "ok" {
						t.Errorf("put resp = %q", resp)
					}
					if i%5 == 0 {
						resp, err = cl.Do([]byte("get " + key))
						if err != nil || string(resp) != "v"+strconv.Itoa(i) {
							t.Errorf("get = %q, %v", resp, err)
						}
					}
				}
			})
		}
		g.Wait()
		state := waitConverged(t, e, c, 10*time.Second)
		if len(state) == 0 {
			t.Error("converged on empty state")
		}
		c.Stop()
	})
}

func TestClusterCountersAreConsistent(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		// Concurrent increments on shared counters: the final values must
		// reflect every increment exactly once.
		const clients, incs = 6, 20
		g := env.NewGroup(e)
		for cid := 0; cid < clients; cid++ {
			cid := cid
			g.Add(1)
			e.Go("client", func() {
				defer g.Done()
				cl := c.NewClient(uint64(100 + cid))
				for i := 0; i < incs; i++ {
					if _, err := cl.Do([]byte("add counter 1")); err != nil {
						t.Errorf("add: %v", err)
						return
					}
				}
			})
		}
		g.Wait()
		cl := c.NewClient(999)
		resp, err := cl.Do([]byte("get counter"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != strconv.Itoa(clients*incs) {
			t.Errorf("counter = %q, want %d", resp, clients*incs)
		}
		waitConverged(t, e, c, 10*time.Second)
		c.Stop()
	})
}

func TestQueryOnPrimaryAndSecondary(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		if _, err := cl.Do([]byte("put q hello")); err != nil {
			t.Fatal(err)
		}
		// Query on the primary sees the write immediately (speculative
		// state, already committed here since Do returned).
		resp, err := cl.Query(p, []byte("get q"))
		if err != nil || string(resp) != "hello" {
			t.Errorf("primary query = %q, %v", resp, err)
		}
		// Queries on secondaries see it once replay catches up.
		deadline := e.Now() + 5*time.Second
		for i := range c.Replicas {
			if i == p {
				continue
			}
			for {
				resp, err := cl.Query(i, []byte("get q"))
				if err == nil && string(resp) == "hello" {
					break
				}
				if e.Now() > deadline {
					t.Fatalf("secondary %d never saw the write: %q, %v", i, resp, err)
				}
				e.Sleep(5 * time.Millisecond)
			}
		}
		c.Stop()
	})
}

func TestFailoverPreservesStateAndAvailability(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 10; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put pre%d x%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
		c.Crash(p)
		// The cluster must elect a new primary and keep serving.
		for i := 0; i < 10; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put post%d y%d", i, i))); err != nil {
				t.Fatalf("post-failover put %d: %v", i, err)
			}
		}
		// Old state must survive.
		resp, err := cl.Do([]byte("get pre7"))
		if err != nil || string(resp) != "x7" {
			t.Errorf("pre-failover data lost: %q, %v", resp, err)
		}
		// Restart the crashed replica; it must catch up and converge.
		if err := c.Restart(p); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, e, c, 20*time.Second)
		c.Stop()
	})
}

func TestFailoverUnderLoad(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		stop := false
		g := env.NewGroup(e)
		errs := 0
		for cid := 0; cid < 4; cid++ {
			cid := cid
			g.Add(1)
			e.Go("client", func() {
				defer g.Done()
				cl := c.NewClient(uint64(cid + 1))
				for i := 0; !stop; i++ {
					if _, err := cl.Do([]byte(fmt.Sprintf("add c%d 1", cid))); err != nil {
						errs++
						return
					}
				}
			})
		}
		e.Sleep(300 * time.Millisecond)
		c.Crash(p) // kill the primary mid-load
		e.Sleep(2 * time.Second)
		stop = true
		g.Wait()
		if errs > 0 {
			t.Errorf("%d clients gave up during failover", errs)
		}
		if err := c.Restart(p); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, e, c, 20*time.Second)
		c.Stop()
	})
}

func TestDedupAcrossFailover(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		p, err := c.WaitPrimary(5 * time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// Submit directly with an explicit sequence number.
		resp, err := c.Replicas[p].Submit(42, 1, []byte("add dedup 5"))
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != "5" {
			t.Fatalf("first = %q", resp)
		}
		// Duplicate on the same primary: cached response, no re-execution.
		resp, err = c.Replicas[p].Submit(42, 1, []byte("add dedup 5"))
		if err != nil || string(resp) != "5" {
			t.Errorf("duplicate = %q, %v (want cached \"5\")", resp, err)
		}
		// Fail over, then retry the same request at the new primary: the
		// dedup table is part of replicated state.
		c.Crash(p)
		deadline := e.Now() + 10*time.Second
		for {
			np := c.Primary()
			if np >= 0 && np != p {
				resp, err = c.Replicas[np].Submit(42, 1, []byte("add dedup 5"))
				if err == nil {
					if string(resp) != "5" {
						t.Errorf("post-failover duplicate executed again: %q", resp)
					}
					break
				}
			}
			if e.Now() > deadline {
				t.Fatal("no new primary in time")
			}
			e.Sleep(10 * time.Millisecond)
		}
		c.Stop()
	})
}

func TestCheckpointCompactionAndFreshJoin(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.CheckpointEvery = 250 * time.Millisecond
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 40; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put ck%d v%d", i, i))); err != nil {
				t.Fatal(err)
			}
			if i%10 == 0 {
				e.Sleep(100 * time.Millisecond)
			}
		}
		// Let at least one full checkpoint cycle complete.
		e.Sleep(time.Second)
		snaps := 0
		for _, s := range c.Snaps {
			if _, _, ok, _ := s.Load(); ok {
				snaps++
			}
		}
		if snaps == 0 {
			t.Fatal("no snapshots taken despite CheckpointEvery")
		}
		// Replace a secondary with a fresh machine: it must obtain a
		// checkpoint transfer (the log prefix was compacted).
		p := c.Primary()
		victim := (p + 1) % 3
		c.Crash(victim)
		for i := 0; i < 10; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("put after%d w%d", i, i))); err != nil {
				t.Fatal(err)
			}
		}
		e.Sleep(500 * time.Millisecond) // another checkpoint lands
		if err := c.RestartFresh(victim); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, e, c, 30*time.Second)
		c.Stop()
	})
}

func TestTimerBackgroundTaskReplicates(t *testing.T) {
	e := sim.New(8)
	e.Run(func() {
		c := cluster.New(e, newTKV, defaultOpts())
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		for i := 0; i < 10; i++ {
			if _, err := cl.Do([]byte(fmt.Sprintf("stage item%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		// The background flush timer must move staged items to flushed on
		// every replica identically.
		e.Sleep(200 * time.Millisecond)
		state := waitConverged(t, e, c, 10*time.Second)
		if !strings.Contains(state, "item9") {
			t.Error("staged items never flushed by the background timer")
		}
		c.Stop()
	})
}

// TestClusterDeterminism runs one seeded load twice in the simulator. The
// runs must agree on the converged state and on a digest of everything a
// schedule change would move: each replica's chosen log, the virtual time
// at exit, and the Paxos and WAL counters. On a mismatch it prints both
// digests, which name the first line that differs.
func TestClusterDeterminism(t *testing.T) {
	run := func() (state, digest string) {
		e := sim.New(8)
		e.Run(func() {
			opts := defaultOpts()
			regs := make([]*obs.Registry, opts.Replicas)
			opts.Derive = func(cfg core.Config) core.Config {
				reg := obs.NewRegistry()
				wal := storage.NewLogMetrics()
				wal.Register(reg)
				cfg.Log.(*storage.FileLog).SetMetrics(wal)
				cfg.Metrics = reg
				regs[cfg.ID] = reg
				return cfg
			}
			c := cluster.New(e, newTKV, opts)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.WaitPrimary(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			g := env.NewGroup(e)
			for cid := 0; cid < 3; cid++ {
				cid := cid
				g.Add(1)
				e.Go("client", func() {
					defer g.Done()
					cl := c.NewClient(uint64(cid + 1))
					for i := 0; i < 15; i++ {
						cl.Do([]byte(fmt.Sprintf("add x%d 2", cid)))
					}
				})
			}
			g.Wait()
			state = waitConverged(t, e, c, 10*time.Second)
			var d strings.Builder
			for i, r := range c.Replicas {
				base, vals := r.ChosenLog()
				h := sha256.New()
				for _, v := range vals {
					h.Write(binary.AppendUvarint(nil, uint64(len(v))))
					h.Write(v)
				}
				fmt.Fprintf(&d, "replica %d chosen [%d, +%d) %x\n", i, base, len(vals), h.Sum(nil)[:8])
			}
			c.Stop()
			fmt.Fprintf(&d, "exit at %v\n", e.Now())
			for i, reg := range regs {
				m := reg.Snapshot()
				batch := m.Size("rex_paxos_persist_batch_records")
				fmt.Fprintf(&d, "replica %d commits=%d persist_batches=%d persist_records=%d wal_appends=%d wal_fsyncs=%d\n",
					i, m.Counter("rex_paxos_commits_total"), batch.Count, batch.Sum,
					m.Counter("rex_wal_appends_total"), m.Counter("rex_wal_fsyncs_total"))
			}
			digest = d.String()
		})
		return state, digest
	}
	s1, d1 := run()
	s2, d2 := run()
	if s1 != s2 {
		t.Error("two identically seeded cluster runs diverged")
	}
	if d1 != d2 {
		t.Errorf("two identically seeded cluster runs took different schedules:\n--- first\n%s--- second\n%s", d1, d2)
	}
}

func TestComputeHeavyRequestsRunConcurrently(t *testing.T) {
	// The same compute-heavy workload must finish substantially faster
	// with 4 worker threads than with 1: Rex preserves handler
	// parallelism on the primary (§2.2).
	run := func(workers int) time.Duration {
		var elapsed time.Duration
		e := sim.New(8)
		e.Run(func() {
			opts := defaultOpts()
			opts.Template.Workers = workers
			c := cluster.New(e, newTKV, opts)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			if _, err := c.WaitPrimary(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			start := e.Now()
			g := env.NewGroup(e)
			for cid := 0; cid < 8; cid++ {
				cid := cid
				g.Add(1)
				e.Go("client", func() {
					defer g.Done()
					cl := c.NewClient(uint64(cid + 1))
					for i := 0; i < 10; i++ {
						if _, err := cl.Do([]byte(fmt.Sprintf("work w%d-%d", cid, i))); err != nil {
							t.Errorf("work: %v", err)
							return
						}
					}
				})
			}
			g.Wait()
			elapsed = e.Now() - start
			waitConverged(t, e, c, 10*time.Second)
			c.Stop()
		})
		return elapsed
	}
	serial := run(1)
	parallel := run(4)
	if parallel >= serial {
		t.Errorf("4 workers (%v) not faster than 1 worker (%v)", parallel, serial)
	}
	// 80 requests x 500µs = 40ms of handler time; commit latency pipelines
	// with handler execution, so require a conservative overlap margin.
	if serial-parallel < 10*time.Millisecond {
		t.Errorf("parallel speedup only %v (serial %v, parallel %v)", serial-parallel, serial, parallel)
	}
}

func TestTraceGarbageCollection(t *testing.T) {
	// With periodic checkpoints, the in-memory trace must stay bounded:
	// the prefix covered by each checkpoint is forgotten (§3.3 GC applied
	// to the trace, not just the consensus log).
	e := sim.New(8)
	e.Run(func() {
		opts := defaultOpts()
		opts.Template.CheckpointEvery = 200 * time.Millisecond
		c := cluster.New(e, newTKV, opts)
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient(1)
		var retainedMid int
		for round := 0; round < 6; round++ {
			for i := 0; i < 40; i++ {
				if _, err := cl.Do([]byte(fmt.Sprintf("put gc%d-%d v", round, i))); err != nil {
					t.Fatal(err)
				}
			}
			e.Sleep(300 * time.Millisecond) // let a checkpoint + GC land
			if round == 2 {
				_, retainedMid = maxRetained(c)
			}
		}
		evEnd, reqEnd := maxRetained(c)
		// 240 requests were executed; with GC the retained request table
		// must be far below that, and events bounded similarly.
		if reqEnd > 150 {
			t.Errorf("retained %d requests after GC, want a bounded tail (ran 240)", reqEnd)
		}
		if retainedMid > 0 && reqEnd > 4*retainedMid+100 {
			t.Errorf("retention grows without bound: mid=%d end=%d", retainedMid, reqEnd)
		}
		if evEnd == 0 {
			t.Error("vacuous: no events retained at all")
		}
		if _, err := c.WaitConverged(15 * time.Second); err != nil {
			t.Fatal(err)
		}
		c.Stop()
	})
}

func maxRetained(c *cluster.Cluster) (events, reqs int) {
	for _, r := range c.Replicas {
		if r == nil {
			continue
		}
		ev, rq := r.TraceRetainedForTest()
		if ev > events {
			events = ev
		}
		if rq > reqs {
			reqs = rq
		}
	}
	return
}

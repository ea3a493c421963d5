package bench

import (
	"fmt"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/obs"
	"rex/internal/smr"
	"rex/internal/storage"
	"rex/internal/transport"
)

// RunConfig parameterizes one measurement run.
type RunConfig struct {
	App     apps.App
	Threads int // worker threads per replica
	Cores   int // simulated cores (the paper's machines: 24 with HT)
	Clients int // closed-loop clients; default 3×Threads
	Warmup  time.Duration
	Measure time.Duration
	// SetupCap truncates the workload prefill.
	SetupCap int
	Seed     int64

	DisablePruning bool
	// DisableConflictElision keeps class-owned lock events in the trace;
	// the conflict-class experiment measures its delta-size cost.
	DisableConflictElision bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Cores <= 0 {
		c.Cores = 24
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.Clients <= 0 {
		// Enough closed-loop clients that the machine, not the client
		// population, is the bottleneck (§6.2: "enough clients submitting
		// requests so that the machines are fully loaded"): light handlers
		// need many concurrent requests per worker to cover the commit
		// latency.
		cpt := c.App.ClientsPerThread
		if cpt <= 0 {
			cpt = 4
		}
		c.Clients = cpt * c.Threads
		if c.Clients < 32 {
			c.Clients = 32
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = 200 * time.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = time.Second
	}
	if c.SetupCap == 0 {
		c.SetupCap = 500
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// RunResult is one measurement.
type RunResult struct {
	Throughput    float64 // completed requests/sec in the measure window
	WaitedPerSec  float64 // replay events that blocked, per second (Fig. 7)
	BytesPerEvent float64 // committed sync-event bytes per event (§6.3)
	EdgesPerEvent float64 // causal edges per sync event (§4.2)
	EventsPerReq  float64
	SyncShare     float64 // sync-event bytes as a fraction of the log

	// Client-observed request latency inside the measure window (Rex runs
	// only; zero elsewhere).
	P50, P95, P99 time.Duration
	// Primary is the primary replica's metric snapshot at the end of the
	// measure window (Rex runs only).
	Primary obs.Snapshot
	// ElidedOps counts lock operations elided from the trace via
	// conflict-class ownership during the measure window (Rex runs only).
	ElidedOps uint64
}

// RunNative measures the unreplicated baseline: Threads workers running
// handlers directly, native-mode primitives.
func RunNative(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	var res RunResult
	simulate(cfg.Cores, fmt.Sprintf("%s native, %d threads", cfg.App.Name, cfg.Threads), func(r *rig) {
		host, err := core.NewNativeHost(r.Env, cfg.Threads, cfg.App.Timers, cfg.Seed, cfg.App.Factory)
		if err != nil {
			panic(err)
		}
		setup(cfg.App, cfg.Seed, cfg.SetupCap, func(req []byte) error {
			host.Apply(0, req)
			return nil
		})
		host.StartTimers()
		r.clients(cfg.Threads, 0, func(i int) op {
			return appOp(cfg.App, cfg.Seed, i, false, func(req []byte) error {
				host.Apply(i, req)
				return nil
			})
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		res.Throughput = w.rate(w.total())
	})
	return res
}

// RunRex measures a 3-replica Rex cluster.
func RunRex(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	var res RunResult
	simulate(cfg.Cores, fmt.Sprintf("%s on Rex, %d threads", cfg.App.Name, cfg.Threads), func(r *rig) {
		o := options(cfg.App, cfg.Threads, cfg.Clients, cfg.Seed)
		o.Template.DisablePruning = cfg.DisablePruning
		o.Template.DisableConflictElision = cfg.DisableConflictElision
		c, p := r.group(cfg.App, o)
		setup(cfg.App, cfg.Seed, cfg.SetupCap, via(c.NewClient(1)))
		r.clients(cfg.Clients, 0, func(i int) op {
			return appOp(cfg.App, cfg.Seed, i, true, via(c.NewClient(uint64(100+i))))
		})
		primary, secondary := c.Replicas[p], c.Replicas[(p+1)%3]
		r.counters = func() map[string]uint64 {
			sec, pri := secondary.Stats(), primary.Stats()
			return map[string]uint64{"waited": sec.WaitedEvents, "events": pri.EventsProposed,
				"edges": pri.EdgesProposed, "bytes": pri.BytesCommitted, "req": pri.ReqBytes, "elided": pri.ElidedOps}
		}
		w := r.steady(cfg.Warmup, cfg.Measure)
		res.Primary = primary.Metrics()
		res.ElidedOps = w.counters["elided"]
		res.P50, res.P95, res.P99 = w.lat.Quantile(0.50), w.lat.Quantile(0.95), w.lat.Quantile(0.99)
		reqs := float64(w.total())
		res.Throughput = w.rate(w.total())
		res.WaitedPerSec = w.rate(w.counters["waited"])
		events := float64(w.counters["events"])
		totalBytes := float64(w.counters["bytes"])
		syncBytes := totalBytes - float64(w.counters["req"])
		if events > 0 {
			res.BytesPerEvent = syncBytes / events
			res.EdgesPerEvent = float64(w.counters["edges"]) / events
		}
		if totalBytes > 0 {
			res.SyncShare = syncBytes / totalBytes
		}
		if reqs > 0 {
			res.EventsPerReq = events / reqs
		}
	})
	return res
}

// RunRSM measures the standard state-machine-replication baseline: same
// Paxos, sequential execution.
func RunRSM(cfg RunConfig) RunResult {
	cfg = cfg.withDefaults()
	var res RunResult
	simulate(cfg.Cores, fmt.Sprintf("%s SMR baseline", cfg.App.Name), func(r *rig) {
		const n = 3
		e := r.Env
		net := transport.NewNetwork(e, n, 500*time.Microsecond, cfg.Seed)
		reps := make([]*smr.Replica, n)
		for i := 0; i < n; i++ {
			i := i
			// Give each SMR replica its own simulated machine, like Rex.
			m := e.AddMachine(cfg.Cores)
			done := e.NewChan(1)
			e.GoOn(m, fmt.Sprintf("rsm-replica-%d-boot", i), func() {
				log, err := storage.OpenLog(e, storage.NewMemDisk(), "wal", true)
				if err != nil {
					panic(err)
				}
				rep, err := smr.NewReplica(smr.Config{
					ID: i, N: n, Env: e,
					Endpoint:        net.Endpoint(i),
					Log:             log,
					Factory:         cfg.App.Factory,
					Timers:          cfg.App.Timers,
					HeartbeatEvery:  20 * time.Millisecond,
					ElectionTimeout: 100 * time.Millisecond,
					MaxOutstanding:  4 * cfg.Clients,
					Seed:            cfg.Seed,
				})
				if err != nil {
					panic(err)
				}
				rep.Start()
				reps[i] = rep
				done.Send(struct{}{})
			})
			done.Recv()
		}
		leader := -1
		for deadline := e.Now() + 5*time.Second; leader < 0 && e.Now() < deadline; e.Sleep(5 * time.Millisecond) {
			for i, rep := range reps {
				if rep.IsLeader() {
					leader = i
				}
			}
		}
		if leader < 0 {
			panic("bench: no SMR leader")
		}
		// submit sends requests as one SMR client, numbering them 1, 2, ...
		submit := func(client uint64) func([]byte) error {
			seq := uint64(0)
			return func(req []byte) error {
				seq++
				_, err := reps[leader].Submit(client, seq, req)
				return err
			}
		}
		setup(cfg.App, cfg.Seed, cfg.SetupCap, submit(1))
		r.clients(cfg.Clients, 0, func(i int) op {
			return appOp(cfg.App, cfg.Seed, i, false, submit(uint64(100+i)))
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		res.Throughput = w.rate(w.total())
	})
	return res
}

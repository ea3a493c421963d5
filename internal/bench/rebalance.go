package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
	"rex/internal/cluster"
	"rex/internal/obs"
	"rex/internal/shard"
)

// The rebalance suite measures what a live range migration costs the
// rest of the deployment: two groups serve a fixed client population
// while the coordinator moves one of group 0's ranges to group 1 in the
// middle of the run. Three windows are compared — steady state before
// the move, the move window itself, and after the flip — plus a fresh
// deployment bootstrapped directly into the post-move map shape, which
// bounds the permanent cost of having migrated (as opposed to having
// always been there).

// RebalanceBenchConfig parameterizes the suite. Two groups, hashdb, and
// a key space split so roughly a quarter of the keys live in the moved
// span (group 0's upper range).
type RebalanceBenchConfig struct {
	Nodes            int
	ReplicasPerGroup int
	Workers          int
	Cores            int // simulated cores per node machine
	Clients          int // closed-loop clients, fixed across windows
	Keys             int
	ValueBytes       int
	Warmup           time.Duration
	Steady           time.Duration // steady-state measurement window
	Post             time.Duration // post-move measurement window
	WarmRounds       int           // coordinator warm-copy rounds
	Seed             int64
}

// DefaultRebalanceBench is the full suite.
func DefaultRebalanceBench() RebalanceBenchConfig {
	return RebalanceBenchConfig{
		Nodes:            3,
		ReplicasPerGroup: 3,
		Workers:          2,
		Cores:            8,
		Clients:          96,
		Keys:             1024,
		ValueBytes:       64,
		Warmup:           200 * time.Millisecond,
		Steady:           400 * time.Millisecond,
		Post:             400 * time.Millisecond,
		WarmRounds:       3,
		Seed:             42,
	}
}

// QuickRebalanceBench trims the suite for a fast pass.
func QuickRebalanceBench() RebalanceBenchConfig {
	cfg := DefaultRebalanceBench()
	cfg.Clients = 48
	cfg.Keys = 512
	cfg.Steady = 250 * time.Millisecond
	cfg.Post = 250 * time.Millisecond
	return cfg
}

// RebalanceBenchResult is the suite's verdict; `make bench-json` folds it
// into BENCH_shard_scaling.json.
type RebalanceBenchResult struct {
	Clients  int `json:"clients"`
	Keys     int `json:"keys"`
	MovedKey int `json:"moved_keys"` // keys whose hash lies in the moved span

	SteadyRPS         float64 `json:"steady_rps"`           // aggregate, before the move
	SteadySurviving   float64 `json:"steady_surviving_rps"` // surviving-range share of steady state
	MoveRPS           float64 `json:"move_rps"`             // aggregate during the live move
	MoveSurviving     float64 `json:"move_surviving_rps"`   // surviving-range share during the move
	SurvivingRatio    float64 `json:"surviving_ratio"`      // MoveSurviving / SteadySurviving
	PostRPS           float64 `json:"post_rps"`             // aggregate after the flip
	StaticRPS         float64 `json:"static_rps"`           // same map shape, never migrated
	PostVsStatic      float64 `json:"post_vs_static"`
	MoveSeconds       float64 `json:"move_seconds"`        // propose -> finalize
	FinalDeltaBytes   uint64  `json:"final_delta_bytes"`   // post-freeze export size
	MoveRangeFraction float64 `json:"move_range_fraction"` // share of hash space moved
}

const rebalanceMoveAt = uint64(1) << 62 // split point: group 0's upper half

// inMoved reports whether key k's hash lies in the moved span [2^62, 2^63).
func inMoved(k int) bool {
	h := shard.HashKey([]byte(key(k)))
	return h >= rebalanceMoveAt && h < uint64(1)<<63
}

// Op kinds of the rebalance suite.
const (
	rebalanceSurviving = iota
	rebalanceMoved
)

// rebalanceGroups deploys the suite's two hashdb groups over m.
func rebalanceGroups(r *rig, cfg RebalanceBenchConfig, m *shard.ShardMap) *cluster.MultiCluster {
	app := apps.HashDB()
	o := options(app, cfg.Workers, cfg.Clients, cfg.Seed)
	o.Template.ReadWorkers, o.LiveRebalance = 2, true
	return r.groups(app, m, o)
}

// rebalanceLoad starts the fixed client population on mc, counting writes
// to the moved span and to the surviving ranges apart.
func rebalanceLoad(r *rig, cfg RebalanceBenchConfig, mc *cluster.MultiCluster) {
	val := value(cfg.ValueBytes)
	r.clients(cfg.Clients, 0, func(i int) op {
		put := routedPut(mc.NewRouter(uint64(10_000+i*100)), hashdb.SetReq, val)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
		return func() (int, bool, error) {
			k := rng.Intn(cfg.Keys)
			kind := rebalanceSurviving
			if inMoved(k) {
				kind = rebalanceMoved
			}
			return kind, false, put(k)
		}
	})
}

// runRebalanceBench measures the live-move deployment: steady state, the
// move itself, and after the flip.
func runRebalanceBench(cfg RebalanceBenchConfig, res *RebalanceBenchResult) (runErr error) {
	simulate(cfg.Cores, "rebalance, live move", func(r *rig) {
		m, err := shard.NewShardMap(1, 2, cfg.Nodes, cfg.ReplicasPerGroup)
		if err != nil {
			runErr = err
			return
		}
		mc := rebalanceGroups(r, cfg, m)

		// Split group 0's range first (metadata only), so the move ships
		// the span [2^62, 2^63) — about a quarter of the keys.
		reg := obs.NewRegistry()
		cd := mc.NewCoordinator(900_000, reg)
		cd.WarmRounds = cfg.WarmRounds
		if _, err := cd.Split(rebalanceMoveAt); err != nil {
			runErr = fmt.Errorf("bench: pre-split: %v", err)
			return
		}
		for k := 0; k < cfg.Keys; k++ {
			if inMoved(k) {
				res.MovedKey++
			}
		}
		// Prefill so the moved span actually has bytes to ship.
		val := value(cfg.ValueBytes)
		r.prefill(cfg.Keys, func(w int) func(int) error {
			return routedPut(mc.NewRouter(uint64(1+w*100)), hashdb.SetReq, val)
		})
		rebalanceLoad(r, cfg, mc)

		// Window 1: steady state.
		steady := r.steady(cfg.Warmup, cfg.Steady)
		res.SteadyRPS = steady.rate(steady.total())
		res.SteadySurviving = steady.rate(steady.count(rebalanceSurviving))

		// Window 2: the live move, from propose until the first 2 ms poll
		// after finalize.
		move := r.measure(func() {
			moved := r.Env.NewChan(1)
			r.Env.Go("rebalance-mover", func() {
				_, err := cd.Move(rebalanceMoveAt, 1)
				moved.Send(err)
			})
			for {
				if err, ok, _ := moved.TryRecv(); ok {
					if err != nil {
						runErr = fmt.Errorf("bench: move: %v", err)
					}
					return
				}
				r.Env.Sleep(2 * time.Millisecond)
			}
		})
		if runErr != nil {
			return
		}
		res.MoveSeconds = move.secs
		if move.secs > 0 {
			res.MoveRPS = move.rate(move.total())
			res.MoveSurviving = move.rate(move.count(rebalanceSurviving))
		}
		if res.SteadySurviving > 0 {
			res.SurvivingRatio = res.MoveSurviving / res.SteadySurviving
		}
		res.FinalDeltaBytes = reg.Snapshot().Counter("rex_rebalance_moved_bytes")
		res.MoveRangeFraction = 0.25

		// Window 3: after the flip.
		post := r.measureFor(cfg.Post)
		res.PostRPS = post.rate(post.total())
	})
	return runErr
}

// runRebalanceStatic measures the same workload on a deployment
// bootstrapped directly into the post-move map shape — the "never
// migrated" baseline.
func runRebalanceStatic(cfg RebalanceBenchConfig) (rps float64, runErr error) {
	simulate(cfg.Cores, "rebalance, static shape", func(r *rig) {
		m, err := shard.NewShardMap(1, 2, cfg.Nodes, cfg.ReplicasPerGroup)
		if err != nil {
			runErr = err
			return
		}
		m.EnsureRanges()
		ms, err := m.WithSplit(rebalanceMoveAt)
		if err != nil {
			runErr = err
			return
		}
		shape, err := ms.WithMove(rebalanceMoveAt, 1)
		if err != nil {
			runErr = err
			return
		}
		rebalanceLoad(r, cfg, rebalanceGroups(r, cfg, shape))
		w := r.steady(cfg.Warmup, cfg.Post)
		rps = w.rate(w.total())
	})
	return rps, runErr
}

// RunRebalanceBench runs the suite: the live-move deployment, then the
// static same-shape baseline.
func RunRebalanceBench(cfg RebalanceBenchConfig, logf func(string, ...any)) (RebalanceBenchResult, error) {
	res := RebalanceBenchResult{Clients: cfg.Clients, Keys: cfg.Keys}
	if logf != nil {
		logf("rebalance: live move deployment...")
	}
	if err := runRebalanceBench(cfg, &res); err != nil {
		return res, err
	}
	if logf != nil {
		logf("rebalance: static same-shape baseline...")
	}
	static, err := runRebalanceStatic(cfg)
	if err != nil {
		return res, err
	}
	res.StaticRPS = static
	if static > 0 {
		res.PostVsStatic = res.PostRPS / static
	}
	return res, nil
}

// PrintRebalanceBench renders the suite.
func PrintRebalanceBench(w io.Writer, r RebalanceBenchResult) {
	t := &Table{
		Title: "Live rebalance: move 1/4 of the hash space under load",
		Cols:  []string{"window", "aggregate w/s", "surviving w/s"},
	}
	t.AddRow("steady", f0(r.SteadyRPS), f0(r.SteadySurviving))
	t.AddRow("during move", f0(r.MoveRPS), f0(r.MoveSurviving))
	t.AddRow("post-move", f0(r.PostRPS), "-")
	t.AddRow("static shape", f0(r.StaticRPS), "-")
	t.Notes = append(t.Notes,
		fmt.Sprintf("surviving-range throughput during the move: %.0f%% of steady state (floor: 70%%)", 100*r.SurvivingRatio),
		fmt.Sprintf("post-move vs never-migrated: %.0f%% (floor: 90%%)", 100*r.PostVsStatic),
		fmt.Sprintf("move took %.0f ms, final post-freeze delta %d bytes, %d of %d keys moved",
			1000*r.MoveSeconds, r.FinalDeltaBytes, r.MovedKey, r.Keys),
	)
	t.Fprint(w)
}

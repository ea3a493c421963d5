package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
	"rex/internal/apps/lsmkv"
	"rex/internal/shard"
)

// The shard-scaling suite measures what partitioning buys: the same four
// nodes host 1, 2, 4, or 8 independent replica groups, a fixed client
// population routes keyed writes through the shard router, and aggregate
// committed throughput is compared against the single-group baseline.
// With one group every request funnels through one primary's propose
// pipeline; with G groups the key space splits into G independent
// pipelines whose primaries the placement rotation spreads over the
// nodes, so throughput scales until either the client population or the
// nodes' cores saturate.

// ShardScalingConfig parameterizes the suite. The client population is
// deliberately FIXED across group counts: the speedup then reflects the
// extra parallel commit pipelines, not extra offered load.
type ShardScalingConfig struct {
	GroupCounts      []int // e.g. 1, 2, 4, 8
	Nodes            int
	ReplicasPerGroup int
	Workers          int // request workers per replica (per group)
	Cores            int // simulated cores per node machine
	Clients          int // total closed-loop clients, fixed across counts
	Keys             int // routed key-space size
	ValueBytes       int
	Warmup           time.Duration
	Measure          time.Duration
	Seed             int64
	Apps             []string // subset of "hashdb", "lsmkv"
}

// DefaultShardScaling is the full suite.
func DefaultShardScaling() ShardScalingConfig {
	return ShardScalingConfig{
		GroupCounts:      []int{1, 2, 4, 8},
		Nodes:            4,
		ReplicasPerGroup: 3,
		Workers:          2,
		Cores:            8,
		Clients:          384,
		Keys:             2048,
		ValueBytes:       64,
		Warmup:           200 * time.Millisecond,
		Measure:          500 * time.Millisecond,
		Seed:             42,
		Apps:             []string{"hashdb", "lsmkv"},
	}
}

// QuickShardScaling trims the suite for a fast pass.
func QuickShardScaling() ShardScalingConfig {
	cfg := DefaultShardScaling()
	cfg.GroupCounts = []int{1, 4}
	cfg.Clients = 256
	cfg.Measure = 300 * time.Millisecond
	return cfg
}

// ShardPoint is one (app, group count) measurement.
type ShardPoint struct {
	App              string    `json:"app"`
	Groups           int       `json:"groups"`
	Nodes            int       `json:"nodes"`
	ReplicasPerGroup int       `json:"replicas_per_group"`
	Clients          int       `json:"clients"`
	Throughput       float64   `json:"throughput_rps"` // aggregate committed writes/sec
	PerGroup         []float64 `json:"per_group_rps"`
	SpeedupVs1       float64   `json:"speedup_vs_1"`
	P50Ms            float64   `json:"p50_ms"`
	P99Ms            float64   `json:"p99_ms"`
}

// ShardScalingResult is the whole suite; `make bench-json` serializes it
// as BENCH_shard_scaling.json. Rebalance carries the live-migration
// experiment when the caller ran it alongside the scaling sweep.
type ShardScalingResult struct {
	Points    []ShardPoint          `json:"points"`
	Rebalance *RebalanceBenchResult `json:"rebalance,omitempty"`
}

// keyedApp adapts one application to the routed workload: a replicated
// write and the state-machine factory to run under each group.
type keyedApp struct {
	app   apps.App
	write func(key string, val []byte) []byte
}

func keyedApps(names []string) ([]keyedApp, error) {
	var out []keyedApp
	for _, name := range names {
		app, ok := apps.Get(name)
		if !ok {
			return nil, fmt.Errorf("bench: unknown application %q", name)
		}
		ka := keyedApp{app: app}
		switch name {
		case "hashdb":
			ka.write = hashdb.SetReq
		case "lsmkv":
			ka.write = lsmkv.PutReq
		default:
			return nil, fmt.Errorf("bench: no keyed workload for %q", name)
		}
		out = append(out, ka)
	}
	return out, nil
}

// runShardPoint measures one group count for one app on a fresh simulator.
func runShardPoint(ka keyedApp, groups int, cfg ShardScalingConfig) ShardPoint {
	pt := ShardPoint{
		App:              ka.app.Name,
		Groups:           groups,
		Nodes:            cfg.Nodes,
		ReplicasPerGroup: cfg.ReplicasPerGroup,
		Clients:          cfg.Clients,
	}
	simulate(cfg.Cores, fmt.Sprintf("shard scaling, %s, %d groups", ka.app.Name, groups), func(r *rig) {
		m, err := shard.NewShardMap(1, groups, cfg.Nodes, cfg.ReplicasPerGroup)
		if err != nil {
			panic(err)
		}
		mc := r.groups(ka.app, m, options(ka.app, cfg.Workers, cfg.Clients, cfg.Seed))
		val := value(cfg.ValueBytes)
		r.prefill(cfg.Keys, func(w int) func(int) error {
			return routedPut(mc.NewRouter(uint64(1+w*100)), ka.write, val)
		})
		// Each client's op counts under the group its key routed to.
		r.clients(cfg.Clients, 0, func(i int) op {
			// Each client gets its own router (cluster clients are not
			// concurrency-safe); id ranges are spaced so every group sees
			// unique client ids.
			rt := mc.NewRouter(uint64(10_000 + i*100))
			put := routedPut(rt, ka.write, val)
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
			return func() (int, bool, error) {
				k := rng.Intn(cfg.Keys)
				err := put(k)
				return rt.GroupFor([]byte(key(k))), true, err
			}
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		pt.Throughput = w.rate(w.total())
		pt.PerGroup = make([]float64, groups)
		for g := range pt.PerGroup {
			pt.PerGroup[g] = w.rate(w.count(g))
		}
		pt.P50Ms, pt.P99Ms = w.ms(0.50), w.ms(0.99)
	})
	return pt
}

// RunShardScaling runs the suite. logf, when non-nil, narrates progress.
func RunShardScaling(cfg ShardScalingConfig, logf func(string, ...any)) (ShardScalingResult, error) {
	var res ShardScalingResult
	kas, err := keyedApps(cfg.Apps)
	if err != nil {
		return res, err
	}
	for _, ka := range kas {
		base := 0.0
		for _, groups := range cfg.GroupCounts {
			if logf != nil {
				logf("shard scaling: %s, %d group(s)...", ka.app.Name, groups)
			}
			pt := runShardPoint(ka, groups, cfg)
			if groups == 1 {
				base = pt.Throughput
			}
			if base > 0 {
				pt.SpeedupVs1 = pt.Throughput / base
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// PrintShardScaling renders the suite as one table per app.
func PrintShardScaling(w io.Writer, r ShardScalingResult) {
	byApp := map[string][]ShardPoint{}
	var order []string
	for _, pt := range r.Points {
		if _, ok := byApp[pt.App]; !ok {
			order = append(order, pt.App)
		}
		byApp[pt.App] = append(byApp[pt.App], pt)
	}
	for _, app := range order {
		t := &Table{
			Title: fmt.Sprintf("Shard scaling: %s, fixed client population", app),
			Cols:  []string{"groups", "nodes", "clients", "writes/s", "speedup", "p50 ms", "p99 ms", "min grp/s", "max grp/s"},
		}
		for _, pt := range byApp[app] {
			lo, hi := pt.PerGroup[0], pt.PerGroup[0]
			for _, v := range pt.PerGroup {
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			t.AddRow(
				fmt.Sprintf("%d", pt.Groups),
				fmt.Sprintf("%d", pt.Nodes),
				fmt.Sprintf("%d", pt.Clients),
				f0(pt.Throughput),
				f2(pt.SpeedupVs1),
				f2(pt.P50Ms),
				f2(pt.P99Ms),
				f0(lo),
				f0(hi),
			)
		}
		t.Notes = append(t.Notes,
			"same nodes and client count at every group count; speedup is extra commit pipelines, not extra load",
			"groups are conflict-free by construction (disjoint key ranges), so no cross-group ordering is paid")
		t.Fprint(w)
	}
}

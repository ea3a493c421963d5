package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
	"rex/internal/readpath"
)

// The read-scaling suite measures what the consistent read path buys on a
// read-heavy mix: the same cluster and client population serve a 90/10
// read/write zipfian workload twice, once with every read linearizable
// (all reads funnel through the primary, each paying the admission drain
// plus a lease or barrier confirmation) and once at session level (reads
// fan out over the secondaries, waiting only for the client's own write
// frontier). The session rows should beat the linearizable baseline and
// keep scaling as replicas are added — secondaries are otherwise idle
// read capacity — while the baseline stays flat or degrades: extra
// replicas add commit fan-out cost but no read capacity.

// ReadScalingConfig parameterizes the suite.
type ReadScalingConfig struct {
	ReplicaCounts []int // e.g. 3, 5
	Workers       int
	ReadWorkers   int
	Cores         int
	Clients       int // closed-loop clients, fixed across runs
	Keys          int
	ValueBytes    int
	ReadPercent   int // reads per 100 operations (rest are writes)
	ZipfS         float64
	Warmup        time.Duration
	Measure       time.Duration
	Seed          int64
}

// DefaultReadScaling is the full suite.
func DefaultReadScaling() ReadScalingConfig {
	return ReadScalingConfig{
		ReplicaCounts: []int{3, 5},
		Workers:       2,
		ReadWorkers:   2,
		Cores:         8,
		Clients:       96,
		Keys:          1024,
		ValueBytes:    64,
		ReadPercent:   90,
		ZipfS:         1.2,
		Warmup:        200 * time.Millisecond,
		Measure:       500 * time.Millisecond,
		Seed:          42,
	}
}

// QuickReadScaling trims the suite for a fast pass.
func QuickReadScaling() ReadScalingConfig {
	cfg := DefaultReadScaling()
	cfg.ReplicaCounts = []int{3}
	cfg.Clients = 64
	cfg.Measure = 300 * time.Millisecond
	return cfg
}

// ReadPoint is one (replica count, consistency level) measurement.
type ReadPoint struct {
	App           string  `json:"app"`
	Replicas      int     `json:"replicas"`
	Level         string  `json:"level"` // "linearizable" or "session"
	Clients       int     `json:"clients"`
	ReadPercent   int     `json:"read_percent"`
	Throughput    float64 `json:"throughput_rps"` // reads+writes per second
	ReadsPerSec   float64 `json:"reads_rps"`
	WritesPerSec  float64 `json:"writes_rps"`
	SpeedupVsLin  float64 `json:"speedup_vs_linearizable"`
	ReadP50Ms     float64 `json:"read_p50_ms"`
	ReadP99Ms     float64 `json:"read_p99_ms"`
	FollowerShare float64 `json:"follower_share"` // fraction of reads served by secondaries
	LeaseShare    float64 `json:"lease_share"`    // fraction of lin reads confirmed by the lease
}

// ReadScalingResult is the whole suite; `make bench-json` serializes it
// as BENCH_read_scaling.json.
type ReadScalingResult struct {
	Points []ReadPoint `json:"points"`
}

// runReadPoint measures one (replicas, level) cell on a fresh simulator.
func runReadPoint(replicas int, level readpath.Level, cfg ReadScalingConfig) ReadPoint {
	const (
		read = iota
		write
	)
	name := "linearizable"
	if level == readpath.Session {
		name = "session"
	}
	pt := ReadPoint{
		App:         "hashdb",
		Replicas:    replicas,
		Level:       name,
		Clients:     cfg.Clients,
		ReadPercent: cfg.ReadPercent,
	}
	simulate(cfg.Cores, fmt.Sprintf("read scaling, %d replicas, %s reads", replicas, name), func(r *rig) {
		app := apps.HashDB()
		o := options(app, cfg.Workers, cfg.Clients, cfg.Seed)
		o.Replicas, o.Template.ReadWorkers = replicas, cfg.ReadWorkers
		c, _ := r.group(app, o)
		val := value(cfg.ValueBytes)
		// Prefill so reads in the measured window always hit.
		r.prefill(cfg.Keys, func(w int) func(int) error {
			send := via(c.NewClient(uint64(1 + w)))
			return func(k int) error { return send(hashdb.SetReq(key(k), val)) }
		})
		r.replicaCounters("rex_follower_reads_total", "rex_lease_reads_total", "rex_lease_confirm_reads_total")
		r.clients(cfg.Clients, 0, func(i int) op {
			cl := c.NewClient(uint64(10_000 + i))
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
			return func() (int, bool, error) {
				k := key(int(zipf.Uint64()))
				if rng.Intn(100) < cfg.ReadPercent {
					_, err := cl.QueryLevel(level, hashdb.GetReq(k))
					return read, true, err
				}
				_, err := cl.Do(hashdb.SetReq(k, val))
				return write, false, err
			}
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		reads := w.count(read)
		pt.ReadsPerSec, pt.WritesPerSec = w.rate(reads), w.rate(w.count(write))
		pt.Throughput = w.rate(w.total())
		pt.ReadP50Ms, pt.ReadP99Ms = w.ms(0.50), w.ms(0.99)
		if reads > 0 {
			pt.FollowerShare = float64(w.counters["rex_follower_reads_total"]) / float64(reads)
		}
		lease := w.counters["rex_lease_reads_total"]
		if lin := lease + w.counters["rex_lease_confirm_reads_total"]; lin > 0 {
			pt.LeaseShare = float64(lease) / float64(lin)
		}
	})
	return pt
}

// RunReadScaling runs the suite. logf, when non-nil, narrates progress.
func RunReadScaling(cfg ReadScalingConfig, logf func(string, ...any)) (ReadScalingResult, error) {
	var res ReadScalingResult
	for _, replicas := range cfg.ReplicaCounts {
		var base float64
		for _, level := range []readpath.Level{readpath.Linearizable, readpath.Session} {
			if logf != nil {
				logf("read scaling: %d replicas, %v reads...", replicas, level)
			}
			pt := runReadPoint(replicas, level, cfg)
			if level == readpath.Linearizable {
				base = pt.Throughput
			}
			if base > 0 {
				pt.SpeedupVsLin = pt.Throughput / base
			}
			res.Points = append(res.Points, pt)
		}
	}
	return res, nil
}

// PrintReadScaling renders the suite as one table.
func PrintReadScaling(w io.Writer, r ReadScalingResult) {
	t := &Table{
		Title: "Read scaling: 90/10 zipfian mix, linearizable vs session reads",
		Cols:  []string{"replicas", "level", "clients", "ops/s", "reads/s", "writes/s", "speedup", "read p50 ms", "read p99 ms", "follower%", "lease%"},
	}
	for _, pt := range r.Points {
		t.AddRow(
			fmt.Sprintf("%d", pt.Replicas),
			pt.Level,
			fmt.Sprintf("%d", pt.Clients),
			f0(pt.Throughput),
			f0(pt.ReadsPerSec),
			f0(pt.WritesPerSec),
			f2(pt.SpeedupVsLin),
			f2(pt.ReadP50Ms),
			f2(pt.ReadP99Ms),
			f0(pt.FollowerShare*100),
			f0(pt.LeaseShare*100),
		)
	}
	t.Notes = append(t.Notes,
		"same cluster and client population per replica count; speedup compares session reads against the linearizable baseline",
		"linearizable reads pay the admission drain plus a lease (or barrier) confirmation at the primary; session reads fan out over secondaries",
		"follower% is the fraction of measured reads served by secondaries; lease% the fraction of linearizable reads confirmed without a barrier")
	t.Fprint(w)
}

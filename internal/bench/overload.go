package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/hashdb"
)

// The overload suite draws the goodput-vs-offered-load curve that
// admission control is supposed to flatten. First a closed-loop probe
// finds the cluster's saturation goodput (its capacity). Then an
// open-loop generator offers multiples of that capacity — arrivals are
// paced by wall clock, not by completions, so the generator does not
// politely back off when the cluster slows — and we measure goodput:
// operations that complete successfully within their deadline. With
// admission control on, excess load is shed cheaply at the gate and
// goodput stays near capacity past saturation. With it off, every
// arrival queues, sojourn times blow through the deadline, and goodput
// collapses even though the server is doing more work than ever.

// OverloadConfig parameterizes the suite.
type OverloadConfig struct {
	Replicas   int
	Workers    int
	Cores      int
	Keys       int
	ValueBytes int

	ClosedClients int           // closed-loop clients for the saturation probe
	Multipliers   []float64     // offered-load multipliers vs measured capacity
	OpDeadline    time.Duration // per-op deadline; completions past it are not goodput

	MaxOutstanding      int
	MaxAdmissionWaiters int
	AdmissionTarget     time.Duration
	AdmissionInterval   time.Duration

	Warmup  time.Duration
	Measure time.Duration
	Seed    int64
}

// DefaultOverloadBench is the full suite.
func DefaultOverloadBench() OverloadConfig {
	return OverloadConfig{
		Replicas:            3,
		Workers:             2,
		Cores:               8,
		Keys:                512,
		ValueBytes:          64,
		ClosedClients:       64,
		Multipliers:         []float64{0.5, 1, 1.5, 2},
		OpDeadline:          25 * time.Millisecond,
		MaxOutstanding:      32,
		MaxAdmissionWaiters: 64,
		AdmissionTarget:     10 * time.Millisecond,
		AdmissionInterval:   50 * time.Millisecond,
		Warmup:              200 * time.Millisecond,
		Measure:             500 * time.Millisecond,
		Seed:                42,
	}
}

// QuickOverloadBench trims the suite for a fast pass.
func QuickOverloadBench() OverloadConfig {
	cfg := DefaultOverloadBench()
	cfg.ClosedClients = 48
	cfg.Multipliers = []float64{1, 2}
	cfg.Measure = 300 * time.Millisecond
	return cfg
}

// OverloadPoint is one measurement on the curve.
type OverloadPoint struct {
	Mode          string  `json:"mode"` // "peak", "protected", or "unprotected"
	OfferedMult   float64 `json:"offered_mult"`
	OfferedRPS    float64 `json:"offered_rps"` // arrivals actually generated per second
	GoodputRPS    float64 `json:"goodput_rps"` // successes within deadline per second
	GoodputVsPeak float64 `json:"goodput_vs_peak"`
	ShedRPS       float64 `json:"shed_rps"`     // server-side sheds per second
	DeadlineRPS   float64 `json:"deadline_rps"` // server-side deadline rejections per second
	FailRPS       float64 `json:"fail_rps"`     // client-visible failures per second
	P50Ms         float64 `json:"p50_ms"`       // latency of successful ops
	P99Ms         float64 `json:"p99_ms"`
	Clients       int     `json:"clients"`
}

// OverloadResult is the whole suite; rexbench -exp overload -json
// serializes it as BENCH_overload.json.
type OverloadResult struct {
	PeakGoodputRPS  float64         `json:"peak_goodput_rps"`
	Goodput2xVsPeak float64         `json:"goodput_2x_vs_peak"`
	Points          []OverloadPoint `json:"points"`
}

// runOverloadPoint measures one cell on a fresh simulator. offered is
// the target arrival rate in ops/s; 0 runs the closed-loop saturation
// probe instead. protected toggles admission control.
func runOverloadPoint(cfg OverloadConfig, protected bool, offered float64) OverloadPoint {
	const (
		good = iota
		failed
	)
	app := apps.HashDB()
	opts := options(app, cfg.Workers, 0, cfg.Seed)
	opts.Replicas = cfg.Replicas
	opts.Template.MaxOutstanding = cfg.MaxOutstanding
	opts.Template.MaxAdmissionWaiters = cfg.MaxAdmissionWaiters
	opts.Template.AdmissionTarget = cfg.AdmissionTarget
	opts.Template.AdmissionInterval = cfg.AdmissionInterval
	pt := OverloadPoint{Mode: "protected"}
	if !protected {
		// The contrast cell: the same speculation depth (capacity is the
		// same provisioned machine) but an unbounded patience queue and
		// no CoDel — every arrival waits out its full sojourn instead of
		// being shed early.
		pt.Mode = "unprotected"
		opts.Template.MaxAdmissionWaiters = 1 << 16
		opts.Template.AdmissionTarget = -1
	}

	// Open-loop fleet sizing: each generator paces itself to an interval
	// and bursts to catch up, so the fleet sustains the offered rate as
	// long as one op (bounded by the deadline) fits in two intervals.
	clients := cfg.ClosedClients
	// The saturation probe is about capacity, not deadline misses:
	// closed-loop clients wait out the queue.
	timeout := 10 * cfg.OpDeadline
	if offered > 0 {
		// Worst case a generator's op burns its whole deadline (sheds
		// pause-and-retry inside DoTimeout), so per-worker throughput
		// floors at 1/deadline; 2x headroom keeps the offered rate real.
		clients = min(max(int(offered*cfg.OpDeadline.Seconds()*2), 32), 1024)
		timeout = cfg.OpDeadline
	}
	pt.Clients = clients

	simulate(cfg.Cores, func(r *rig) {
		c, _ := r.group(app, opts)
		val := value(cfg.ValueBytes)
		r.counters = replicaCounters(c, "rex_shed_total", "rex_deadline_exceeded_total")
		r.clients(clients, offered, func(i int) op {
			cl := c.NewClient(uint64(10_000 + i))
			rng := rand.New(rand.NewSource(cfg.Seed + int64(i) + 1))
			zipf := rand.NewZipf(rng, 1.2, 1, uint64(cfg.Keys-1))
			return func() (int, bool, error) {
				t0 := r.e.Now()
				_, err := cl.DoTimeout(hashdb.SetReq(key(int(zipf.Uint64())), val), timeout)
				if err == nil && r.e.Now()-t0 <= timeout {
					return good, true, nil
				}
				return failed, false, nil
			}
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		pt.OfferedRPS = w.rate(w.total())
		pt.GoodputRPS, pt.FailRPS = w.rate(w.count(good)), w.rate(w.count(failed))
		pt.ShedRPS = w.rate(w.counters["rex_shed_total"])
		pt.DeadlineRPS = w.rate(w.counters["rex_deadline_exceeded_total"])
		pt.P50Ms, pt.P99Ms = w.ms(0.50), w.ms(0.99)
	})
	return pt
}

// RunOverloadBench runs the suite. logf, when non-nil, narrates progress.
func RunOverloadBench(cfg OverloadConfig, logf func(string, ...any)) (OverloadResult, error) {
	var res OverloadResult
	if logf != nil {
		logf("overload: measuring saturation goodput (closed loop, %d clients)...", cfg.ClosedClients)
	}
	peak := runOverloadPoint(cfg, true, 0)
	peak.Mode = "peak"
	peak.GoodputVsPeak = 1
	res.PeakGoodputRPS = peak.GoodputRPS
	res.Points = append(res.Points, peak)
	if peak.GoodputRPS <= 0 {
		return res, fmt.Errorf("overload: saturation probe measured zero goodput")
	}

	maxMult := 0.0
	for _, m := range cfg.Multipliers {
		if logf != nil {
			logf("overload: offered %.1fx capacity (protected)...", m)
		}
		pt := runOverloadPoint(cfg, true, m*peak.GoodputRPS)
		pt.OfferedMult = m
		pt.GoodputVsPeak = pt.GoodputRPS / peak.GoodputRPS
		res.Points = append(res.Points, pt)
		if m >= maxMult {
			maxMult = m
			res.Goodput2xVsPeak = pt.GoodputVsPeak
		}
	}

	// The contrast cell: the same top offered load with admission
	// control off. Expect goodput to crater as queueing eats deadlines.
	if maxMult > 0 {
		if logf != nil {
			logf("overload: offered %.1fx capacity (unprotected)...", maxMult)
		}
		pt := runOverloadPoint(cfg, false, maxMult*peak.GoodputRPS)
		pt.OfferedMult = maxMult
		pt.GoodputVsPeak = pt.GoodputRPS / peak.GoodputRPS
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// PrintOverloadBench renders the suite as one table.
func PrintOverloadBench(w io.Writer, r OverloadResult) {
	t := &Table{
		Title: "Overload: goodput vs offered load, admission control on/off",
		Cols:  []string{"mode", "offered x", "clients", "offered/s", "goodput/s", "vs peak", "shed/s", "deadline/s", "fail/s", "p50 ms", "p99 ms"},
	}
	for _, pt := range r.Points {
		t.AddRow(
			pt.Mode,
			f2(pt.OfferedMult),
			fmt.Sprintf("%d", pt.Clients),
			f0(pt.OfferedRPS),
			f0(pt.GoodputRPS),
			f2(pt.GoodputVsPeak),
			f0(pt.ShedRPS),
			f0(pt.DeadlineRPS),
			f0(pt.FailRPS),
			f2(pt.P50Ms),
			f2(pt.P99Ms),
		)
	}
	t.Notes = append(t.Notes,
		"peak is the closed-loop saturation probe: capacity with clients waiting out the queue",
		"protected/unprotected rows offer open-loop arrivals at multiples of peak; goodput counts only successes within the deadline",
		"the protected rows should hold near 1.0x past saturation (cheap sheds); the unprotected row craters as queueing eats every deadline")
	t.Fprint(w)
}

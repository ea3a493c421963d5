package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"rex/internal/apps"
	"rex/internal/obs"
)

// Fig10Config scripts the §6.6 failover timeline on the thumbnail server:
// two checkpoints, a primary kill, and a rejoin, under saturating load
// with aggressive flow control.
type Fig10Config struct {
	Threads     int
	Cores       int
	Clients     int
	BucketEvery time.Duration

	Checkpoint1 time.Duration
	Checkpoint2 time.Duration
	KillAt      time.Duration
	RestartAt   time.Duration
	EndAt       time.Duration

	// ElectionTimeout controls how long the outage lasts after the kill:
	// the paper's conservative failure detector takes ~5s to elect a new
	// primary.
	ElectionTimeout time.Duration

	Seed int64
}

// DefaultFig10 compresses the paper's 135-second timeline to 36 virtual
// seconds (the dynamics — checkpoint dip, outage, catch-up throttling —
// are unchanged, just denser).
func DefaultFig10() Fig10Config {
	return Fig10Config{
		Threads:         4,
		Cores:           8,
		Clients:         12,
		BucketEvery:     time.Second,
		Checkpoint1:     5 * time.Second,
		Checkpoint2:     17 * time.Second,
		KillAt:          18 * time.Second,
		RestartAt:       24 * time.Second,
		EndAt:           36 * time.Second,
		ElectionTimeout: 1200 * time.Millisecond,
		Seed:            42,
	}
}

// Fig10Sample is one timeline bucket. The final sample additionally
// carries the surviving primary's metric snapshot (promotion, rebuild and
// election series for the failover).
type Fig10Sample struct {
	At         time.Duration
	Throughput float64
	Event      string
	Metrics    obs.Snapshot
}

// Fig10 runs the failover timeline and returns per-bucket throughput.
func Fig10(cfg Fig10Config) []Fig10Sample {
	app := apps.Thumbnail()
	var samples []Fig10Sample
	simulate(cfg.Cores, func(r *rig) {
		o := options(app, cfg.Threads, cfg.Clients, cfg.Seed)
		o.Template.HeartbeatEvery = cfg.ElectionTimeout / 8
		o.Template.ElectionTimeout = cfg.ElectionTimeout
		// A tighter replay-backlog limit than the default is what makes
		// the rejoining replica's catch-up visible as the paper's rejoin
		// sag (§6.6).
		o.Template.LagLimitEvents = 1 << 12
		c, p := r.group(app, o)
		r.clients(cfg.Clients, 0, func(i int) op {
			cl := c.NewClient(uint64(100 + i))
			// Keep retrying through the outage; the request stream must
			// resume as soon as a new primary serves.
			return appOp(app, cfg.Seed, i, false, func(req []byte) error {
				cl.DoTimeout(req, 60*time.Second)
				return nil
			})
		})

		// Scripted control plane; each step labels the bucket after it.
		checkpoint := func() {
			if pr := c.Primary(); pr >= 0 {
				c.Replicas[pr].Checkpoint()
			}
		}
		script := []struct {
			at   time.Duration
			what string
			do   func()
		}{
			{cfg.Checkpoint1, "checkpoint 1", checkpoint},
			{cfg.Checkpoint2, "checkpoint 2", checkpoint},
			{cfg.KillAt, "primary killed", func() { c.Crash(p) }},
			{cfg.RestartAt, "old primary rejoins", func() {
				if err := c.Restart(p); err != nil {
					panic(err)
				}
			}},
		}
		events := make(map[int]string)
		for _, step := range script {
			events[int(step.at/cfg.BucketEvery)+1] = step.what
		}
		r.e.Go("script", func() {
			for _, step := range script {
				for r.e.Now() < step.at {
					if r.stopping() {
						return
					}
					r.e.Sleep(10 * time.Millisecond)
				}
				step.do()
			}
		})

		// Sample throughput per bucket.
		start := r.e.Now()
		for r.e.Now()-start < cfg.EndAt {
			w := r.measureFor(cfg.BucketEvery)
			at := r.e.Now() - start
			samples = append(samples, Fig10Sample{
				At:         at,
				Throughput: w.rate(w.total()),
				Event:      events[int(at/cfg.BucketEvery)],
			})
		}
		if pr := c.Primary(); pr >= 0 && len(samples) > 0 {
			samples[len(samples)-1].Metrics = c.Replicas[pr].Metrics()
		}
	})
	return samples
}

// PrintFig10 renders the timeline.
func PrintFig10(w io.Writer, cfg Fig10Config, samples []Fig10Sample) {
	t := &Table{
		Title: "Figure 10: thumbnail-server failover timeline (throughput per second)",
		Cols:  []string{"t (s)", "req/s", "", "event"},
	}
	var peak float64
	for _, s := range samples {
		if s.Throughput > peak {
			peak = s.Throughput
		}
	}
	for _, s := range samples {
		barLen := 0
		if peak > 0 {
			barLen = int(s.Throughput / peak * 40)
		}
		t.AddRow(fmt.Sprintf("%.0f", s.At.Seconds()), f0(s.Throughput),
			strings.Repeat("#", barLen), s.Event)
	}
	t.Notes = append(t.Notes,
		"paper (§6.6): throughput dips ~2s at each checkpoint, drops to zero when the primary",
		"dies, recovers after election, and sags while the rejoined replica catches up under",
		"aggressive flow control, then returns to normal.")
	t.Fprint(w)
	if n := len(samples); n > 0 {
		PrintMetricsSummary(w, "surviving primary after failover", samples[n-1].Metrics)
	}
}

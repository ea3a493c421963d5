package bench

import (
	"fmt"
	"io"
	"time"

	"rex/internal/apps"
	"rex/internal/apps/lockserver"
	"rex/internal/obs"
)

// Fig9Config parameterizes the §6.5 query-semantics experiment: a fixed
// pool of query threads reads outside the replication protocol while
// update load scales.
type Fig9Config struct {
	QueryThreads  int
	UpdateThreads []int
	Cores         int
	Warmup        time.Duration
	Measure       time.Duration
	Seed          int64
}

// DefaultFig9 mirrors the paper's 24 query threads and 1–32 update
// threads.
func DefaultFig9() Fig9Config {
	return Fig9Config{
		QueryThreads:  24,
		UpdateThreads: []int{1, 2, 4, 8, 16, 24, 32},
		Cores:         24,
		Warmup:        200 * time.Millisecond,
		Measure:       time.Second,
		Seed:          42,
	}
}

// Fig9Row is one x-axis point: update and query throughput for one query
// placement.
type Fig9Row struct {
	UpdateThreads int
	UpdateTput    float64
	QueryTput     float64

	// Metrics is the queried replica's snapshot for this point (the
	// secondary's includes the replay wait histograms).
	Metrics obs.Snapshot
}

// Fig9 reproduces Figure 9 for the given placement: onPrimary=false reads
// a secondary's committed state, onPrimary=true reads the primary's
// speculative state. The lock server runs in a contended configuration
// (few shards, work held under the shard lock) so queries feel update
// pressure, as in the paper's fully loaded setup.
func Fig9(cfg Fig9Config, onPrimary bool) []Fig9Row {
	opts := lockserver.DefaultOptions()
	opts.Shards = 8
	opts.OpCost = 10 * time.Microsecond
	opts.HoldCost = 40 * time.Microsecond
	app := apps.LockServerWith(opts)
	var rows []Fig9Row
	for _, uth := range cfg.UpdateThreads {
		rows = append(rows, fig9Point(cfg, app, uth, onPrimary))
	}
	return rows
}

func fig9Point(cfg Fig9Config, app apps.App, updateThreads int, onPrimary bool) Fig9Row {
	const (
		update = iota
		query
	)
	row := Fig9Row{UpdateThreads: updateThreads}
	place := "secondary"
	if onPrimary {
		place = "primary"
	}
	simulate(cfg.Cores, fmt.Sprintf("Figure 9, queries on the %s, %d update threads", place, updateThreads), func(r *rig) {
		updaters := 24 * updateThreads
		o := options(app, updateThreads, updaters, cfg.Seed)
		o.Template.ReadWorkers = cfg.QueryThreads
		c, p := r.group(app, o)
		setup(app, cfg.Seed, 500, via(c.NewClient(1)))
		target := c.Replicas[(p+1)%3]
		if onPrimary {
			target = c.Replicas[p]
		}
		r.clients(updaters, 0, func(i int) op {
			return appOp(app, cfg.Seed, i, false, via(c.NewClient(uint64(100+i))))
		})
		r.clients(cfg.QueryThreads, 0, func(i int) op {
			wl := app.NewWorkload(cfg.Seed + 1000 + int64(i))
			return func() (int, bool, error) {
				_, err := target.Query(wl.Query())
				return query, false, err
			}
		})
		w := r.steady(cfg.Warmup, cfg.Measure)
		row.UpdateTput, row.QueryTput = w.rate(w.count(update)), w.rate(w.count(query))
		row.Metrics = target.Metrics()
	})
	return row
}

// PrintFig9 renders one Figure 9 panel.
func PrintFig9(w io.Writer, onPrimary bool, rows []Fig9Row) {
	place := "secondary (committed state)"
	panel := "9(a)"
	if onPrimary {
		place = "primary (speculative state)"
		panel = "9(b)"
	}
	t := &Table{
		Title: fmt.Sprintf("Figure %s: queries on the %s", panel, place),
		Cols:  []string{"update threads", "update (req/s)", "query (req/s)"},
	}
	for _, r := range rows {
		t.AddRow(fmt.Sprint(r.UpdateThreads), f0(r.UpdateTput), f0(r.QueryTput))
	}
	t.Notes = append(t.Notes,
		"paper (§6.5): query throughput stays roughly flat on a secondary as updates scale,",
		"but sags on the primary, whose threads rarely wait and so hold locks more contiguously.")
	t.Fprint(w)
	if n := len(rows); n > 0 {
		PrintMetricsSummary(w, fmt.Sprintf("queried %s @ %d update threads", place, rows[n-1].UpdateThreads),
			rows[n-1].Metrics)
	}
}

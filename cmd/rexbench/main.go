// Command rexbench regenerates every table and figure from the paper's
// evaluation (§6) on the deterministic simulator. See EXPERIMENTS.md for
// the expected shapes.
//
// Usage:
//
//	rexbench -exp all                 # every figure and table (takes a while)
//	rexbench -exp fig7 -app thumbnail # one Figure 7 panel
//	rexbench -exp fig10               # the failover timeline
//	rexbench -exp fig7 -quick         # reduced thread counts / durations
//	rexbench -exp reads -json f.json  # a suite, its result also written as JSON
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"rex/internal/apps"
	"rex/internal/bench"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// experiment is one -exp choice: a figure prints its tables; a suite also
// returns the result -json writes.
type experiment struct {
	name  string
	fig   func()
	suite func() (any, error)
}

// pick returns fast's config under -quick and full's otherwise.
func pick[C any](quick bool, full, fast func() C) C {
	if quick {
		return fast()
	}
	return full()
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("rexbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	appName := fs.String("app", "", "application for fig7 (default: all six)")
	quick := fs.Bool("quick", false, "reduced configurations for a fast pass")
	threads := fs.Int("threads", 8, "worker threads for tracesize/edges/ablations")
	logf := func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) }

	exps := []experiment{
		{name: "table1", fig: func() { bench.PrintTable1(out) }},
		{name: "fig7", fig: func() {
			list := apps.All()
			if app, ok := apps.Get(*appName); ok {
				list = []apps.App{app}
			}
			for _, app := range list {
				fmt.Fprintf(out, "running Figure 7 panel for %s...\n", app.Name)
				bench.PrintFig7(out, app, bench.Fig7(app, pick(*quick, bench.DefaultFig7, bench.QuickFig7)))
			}
		}},
		{name: "fig8a", fig: func() {
			cfg := bench.DefaultFig8()
			pcts, ps := []int{10, 60, 80, 100}, []float64{0.001, 0.01, 0.05, 0.1}
			if *quick {
				cfg.Measure = 400 * time.Millisecond
				pcts, ps = []int{10, 100}, []float64{0.001, 0.1}
			}
			bench.PrintFig8a(out, bench.Fig8a(cfg, pcts, ps))
		}},
		{name: "fig8b", fig: func() {
			cfg := bench.DefaultFig8()
			ps := []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.5, 1}
			if *quick {
				cfg.Measure = 400 * time.Millisecond
				ps = []float64{0.01, 0.2, 1}
			}
			bench.PrintFig8b(out, bench.Fig8b(cfg, ps))
		}},
		{name: "fig9", fig: func() {
			cfg := bench.DefaultFig9()
			if *quick {
				cfg.UpdateThreads = []int{2, 16}
				cfg.QueryThreads = 12
				cfg.Measure = 400 * time.Millisecond
			}
			bench.PrintFig9(out, false, bench.Fig9(cfg, false))
			bench.PrintFig9(out, true, bench.Fig9(cfg, true))
		}},
		{name: "fig10", fig: func() {
			cfg := bench.DefaultFig10()
			if *quick {
				cfg.Checkpoint1 = 2 * time.Second
				cfg.Checkpoint2 = 5 * time.Second
				cfg.KillAt = 6 * time.Second
				cfg.RestartAt = 9 * time.Second
				cfg.EndAt = 14 * time.Second
				cfg.ElectionTimeout = time.Second
				cfg.BucketEvery = 500 * time.Millisecond
			}
			bench.PrintFig10(out, cfg, bench.Fig10(cfg))
		}},
		{name: "tracesize", fig: func() { bench.PrintTraceStats(out, *threads) }},
		{name: "edges", fig: func() { bench.PrintEdgeAblation(out, *threads) }},
		{name: "ablate-partialorder", fig: func() { bench.PrintPartialOrderAblation(out, *threads) }},
		{name: "ablate-delta", fig: func() { bench.PrintDeltaAblation(out, *threads) }},
		{name: "commitpath", suite: func() (any, error) {
			res := bench.CommitPath()
			bench.PrintCommitPath(out, res)
			return res, nil
		}},
		{name: "shards", suite: func() (any, error) {
			res, err := bench.RunShardScaling(pick(*quick, bench.DefaultShardScaling, bench.QuickShardScaling), logf)
			if err != nil {
				return nil, err
			}
			bench.PrintShardScaling(out, res)
			// The live-migration experiment rides along with the scaling
			// sweep so BENCH_shard_scaling.json carries both.
			rres, err := bench.RunRebalanceBench(pick(*quick, bench.DefaultRebalanceBench, bench.QuickRebalanceBench), logf)
			res.Rebalance = &rres
			bench.PrintRebalanceBench(out, rres)
			return res, err
		}},
		{name: "reads", suite: func() (any, error) {
			res, err := bench.RunReadScaling(pick(*quick, bench.DefaultReadScaling, bench.QuickReadScaling), logf)
			bench.PrintReadScaling(out, res)
			return res, err
		}},
		{name: "rebalance", suite: func() (any, error) {
			res, err := bench.RunRebalanceBench(pick(*quick, bench.DefaultRebalanceBench, bench.QuickRebalanceBench), logf)
			bench.PrintRebalanceBench(out, res)
			return res, err
		}},
		{name: "overload", suite: func() (any, error) {
			res, err := bench.RunOverloadBench(pick(*quick, bench.DefaultOverloadBench, bench.QuickOverloadBench), logf)
			bench.PrintOverloadBench(out, res)
			return res, err
		}},
	}
	var names, suites []string
	for _, e := range exps {
		names = append(names, e.name)
		if e.suite != nil {
			suites = append(suites, e.name)
		}
	}
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|all (all runs every figure and table)")
	jsonOut := fs.String("json", "", "also write the result of "+strings.Join(suites, "/")+" as JSON to this path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := apps.Get(*appName); *appName != "" && !ok {
		fmt.Fprintf(errOut, "unknown application %q\n", *appName)
		return 2
	}

	var chosen []experiment
	for _, e := range exps {
		if e.name == *exp || (*exp == "all" && e.fig != nil) {
			chosen = append(chosen, e)
		}
	}
	switch {
	case len(chosen) == 0:
		fmt.Fprintf(errOut, "unknown experiment %q\n", *exp)
		return 2
	case *jsonOut != "" && chosen[0].suite == nil:
		fmt.Fprintf(errOut, "-exp %s has no JSON result; -json works with %s\n", *exp, strings.Join(suites, ", "))
		return 2
	}
	for _, e := range chosen {
		if err := e.run(out, *jsonOut); err != nil {
			fmt.Fprintf(errOut, "%s: %v\n", e.name, err)
			return 1
		}
	}
	return 0
}

// run runs the experiment and writes a suite's result to jsonOut when
// set. A run whose replicas fail the end-of-run check
// (bench.CheckFailure) is an error, so no number of it is reported.
func (e experiment) run(out io.Writer, jsonOut string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			f, ok := v.(*bench.CheckFailure)
			if !ok {
				panic(v)
			}
			err = f
		}
	}()
	if e.fig != nil {
		e.fig()
		return nil
	}
	res, err := e.suite()
	if err != nil || jsonOut == "" {
		return err
	}
	if err := writeJSON(jsonOut, res); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", jsonOut)
	return nil
}

func writeJSON(path string, res any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = bench.WriteJSON(f, res)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

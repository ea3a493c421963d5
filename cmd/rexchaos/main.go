// Command rexchaos runs seed-deterministic chaos scenarios against an
// in-process Rex cluster under the simulator and checks the correctness
// contract: linearizability of the recorded client history, the prefix
// property over chosen logs, state agreement after quiescence, and each
// preset's own invariants. On failure it prints the command line that
// reruns the first failing seed.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"rex/internal/chaos"
	"rex/internal/obs"
)

// config is the parsed command line.
type config struct {
	fs        *flag.FlagSet
	scenario  string
	seed      int64
	scenarios int
	app       string
	duration  time.Duration
	clients   int
	groups    int
	verbose   bool
}

func parseArgs(args []string, errOut io.Writer) (*config, error) {
	c := &config{fs: flag.NewFlagSet("rexchaos", flag.ContinueOnError)}
	fs := c.fs
	fs.SetOutput(errOut)
	fs.StringVar(&c.scenario, "scenario", "generic", "preset to run: "+strings.Join(chaos.Presets(), "|"))
	fs.Int64Var(&c.seed, "seed", 1, "base seed; scenario i runs with seed+i")
	fs.IntVar(&c.scenarios, "scenarios", 10, "number of scenarios to run")
	fs.StringVar(&c.app, "app", "all", "hashdb|memcache|lockserver|all (all derives the app from each seed; reads, conflicts, overload, shards and rebalance drive hashdb only)")
	fs.DurationVar(&c.duration, "duration", 0, "virtual client-load phase per scenario (0 takes the preset's default)")
	fs.IntVar(&c.clients, "clients", 0, "client load tasks (0 takes the preset's default)")
	fs.IntVar(&c.groups, "groups", 0, "replica groups for shards and rebalance (0 takes the preset's default)")
	fs.BoolVar(&c.verbose, "v", false, "log nemesis actions and replica events as they fire")
	return c, fs.Parse(args)
}

// build completes the scenario for one seed.
func (c *config) build(seed int64) (chaos.Scenario, error) {
	return chaos.NewScenario(chaos.Scenario{
		Name:     c.scenario,
		Seed:     seed,
		App:      c.app,
		Duration: c.duration,
		Clients:  c.clients,
		Groups:   c.groups,
	})
}

// reproduce is the command line that reruns one seed: the preset plus
// every other flag the user set.
func (c *config) reproduce(seed int64) string {
	args := []string{"go run ./cmd/rexchaos", "-scenario=" + c.scenario}
	c.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "scenario", "scenarios", "seed":
		default:
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return strings.Join(append(args, "-scenarios=1", fmt.Sprintf("-seed=%d", seed)), " ")
}

func main() {
	c, err := parseArgs(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2)
	}
	reg := obs.NewRegistry()
	var logf func(string, ...any)
	if c.verbose {
		logf = func(format string, args ...any) {
			fmt.Printf("    "+format+"\n", args...)
		}
	}

	start := time.Now()
	var failed []int64
	for i := 0; i < c.scenarios; i++ {
		s := c.seed + int64(i)
		sc, err := c.build(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res := sc.Run(reg, logf)
		if !res.OK {
			failed = append(failed, s)
		}
		fmt.Printf("scenario %2d/%d  %s\n", i+1, c.scenarios, verdict(res))
		for _, v := range res.Violations {
			fmt.Printf("    violation: %s\n", v)
		}
	}

	printMetrics(reg)
	if len(failed) > 0 {
		fmt.Printf("FAILING SEEDS: %s\n", strings.Trim(fmt.Sprint(failed), "[]"))
		fmt.Printf("reproduce with: %s\n", c.reproduce(failed[0]))
		os.Exit(1)
	}
	fmt.Printf("all %d %s scenarios OK in %v\n", c.scenarios, c.scenario, time.Since(start).Round(time.Millisecond))
}

// verdict renders one scenario's result line.
func verdict(res chaos.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%-6d app=%-10s faults=%-2d ops=%-4d timeouts=%-3d checked=%-4d parts=%-3d wall=%-10v",
		res.Seed, res.App, res.Faults, res.Ops, res.Timeouts, res.Checked, res.Parts,
		res.CheckerWall.Round(time.Microsecond))
	for _, c := range res.Counts {
		fmt.Fprintf(&b, " %s=%d", c.Name, c.N)
	}
	if res.OK {
		b.WriteString(" OK")
	} else {
		b.WriteString(" FAIL")
	}
	return b.String()
}

func printMetrics(reg *obs.Registry) {
	snap := reg.Snapshot()
	var faultNames []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "chaos_fault_") {
			faultNames = append(faultNames, name)
		}
	}
	sort.Strings(faultNames)
	fmt.Printf("faults injected:")
	if len(faultNames) == 0 {
		fmt.Printf(" none")
	}
	for _, name := range faultNames {
		fmt.Printf(" %s=%d", strings.TrimPrefix(name, "chaos_fault_"), snap.Counters[name])
	}
	fmt.Println()
	wall := snap.Histogram("chaos_checker_wall")
	fmt.Printf("checker: histories=%d ops=%d wall mean=%v max=%v\n",
		snap.Counter("chaos_histories_verified"),
		snap.Counter("chaos_ops_checked"),
		wall.Mean().Round(time.Microsecond),
		wall.Max.Round(time.Microsecond))
}

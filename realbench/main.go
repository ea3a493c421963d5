// Command realbench measures the path a Rex user takes: server.Client over
// loopback TCP to three in-process replicas configured like cmd/rexd, each
// with its own TCP endpoint, fsynced FileLog and FileSnapshots. It checks
// every response and every acknowledged write, and prints each end-to-end
// metric, and with -trace 1 each per-layer metric, by name with its unit.
// The last line of standard output is a JSON summary.
//
//	go run . -workload put -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and what they should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"syscall"
	"time"
)

// errIncorrect marks a failed correctness check, as opposed to a run that
// could not finish.
var errIncorrect = errors.New("incorrect result")

// setups is how many fresh clusters one run sets up, each measured for an
// equal share of the window. Pooling them steadies the figures, because
// much of the run-to-run variation is per cluster; setup_s is the median
// of their set-up times.
const setups = 3

type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	data    string // this run's data directory, removed on exit
	out     string // span dumps and diagnostics
}

// report is what one run prints as its JSON summary.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain runs one workload. run.sh runs every workload, each in a
// process of its own, so that process-wide figures such as peak_rss_mb
// belong to one workload.
func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("realbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "put | read-mostly | failover")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same keys, values and op mix")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	traceFlag := fs.Int("trace", 0, "1: also run with the storage and transport wrappers recording spans, and report per-layer metrics")
	data := fs.String("data", "", "directory under which the replicas' data lives (default: /dev/shm if writable, else the -out directory)")
	outDir := fs.String("out", ".bench_build", "directory for span dumps and diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "realbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "realbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, out: *outDir}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintf(stderr, "realbench: %v\n", err)
		return 1
	}
	var err error
	if o.data, err = makeDataDir(*data, o.out); err != nil {
		fmt.Fprintf(stderr, "realbench: data directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(o.data)

	// A run that stops making progress is failed, never left hanging.
	windows := 1
	if o.trace {
		windows = 2
	}
	limit := time.Duration(windows) * (o.seconds + setups*8*time.Second + 20*time.Second)
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(stderr, "realbench: FAILED: run exceeded its %v wall-clock cap\n%s", limit, describeActive())
		if f, err := os.Create(filepath.Join(o.out, "stacks.txt")); err == nil {
			pprof.Lookup("goroutine").WriteTo(f, 2)
			f.Close()
			fmt.Fprintf(stderr, "goroutine stacks written to %s\n", f.Name())
		}
		abandonAll()
		os.RemoveAll(o.data)
		os.Exit(1)
	})
	defer watchdog.Stop()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)
	go func() {
		if _, ok := <-sig; ok {
			abandonAll()
			os.RemoveAll(o.data)
			os.Exit(1)
		}
	}()

	rep, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "realbench: %s: FAILED: %v\n", w.name, err)
		if !errors.Is(err, errIncorrect) {
			return 1
		}
	}
	printJSON(stdout, rep)
	if !rep.correct {
		return 1
	}
	return 0
}

// runWorkload runs w untraced and, with o.trace, once more traced. It
// prints every metric it computes and returns the ones the JSON summary
// carries. A correctness failure returns an error wrapping errIncorrect
// along with a report marked incorrect.
func runWorkload(w workload, o options, out io.Writer) (report, error) {
	rep := report{correct: true}
	plain, setupTimes, err := runOnce(w, o, nil)
	if err != nil {
		rep.correct = false
		return rep, err
	}
	e2e := endToEnd(plain, setupTimes)
	s := plain.samples()
	rep.attempted, rep.failed = s.attempted, s.failed
	fmt.Fprintf(out, "== %s seed=%d window=%.2fs untraced: %d writes, %d linearizable reads, %d session reads, %d failed, %d retried attempts, %d kills\n",
		w.name, o.seed, plain.seconds(), len(s.writes), len(s.lin), len(s.sess), s.failed, s.retries, len(plain.kills))
	printMetrics(out, "", e2e)
	if !o.trace {
		rep.metrics = pick(e2e, endToEndJSON)
		return rep, nil
	}

	tr := newTracer()
	traced, setupTimes, err := runOnce(w, o, tr)
	if err != nil {
		rep.correct = false
		return rep, err
	}
	ts := traced.samples()
	rep.attempted += ts.attempted
	rep.failed += ts.failed
	tracedE2E := endToEnd(traced, setupTimes)
	layers := perLayer(traced)
	fmt.Fprintf(out, "== %s seed=%d window=%.2fs traced: %d writes, %d reads, %d failed, %d spans\n",
		w.name, o.seed, traced.seconds(), len(ts.writes), len(ts.reads), ts.failed, len(traced.spans))
	printMetrics(out, "", layers)
	printBusy(out, traced)
	for _, n := range []string{"throughput_ops", "write_p50_ms"} {
		a, b := find(e2e, n), find(tracedE2E, n)
		fmt.Fprintf(out, "overhead %-16s untraced %12.4f traced %12.4f change %+.2f%%\n", n, a, b, 100*(b-a)/a)
	}
	path := filepath.Join(o.out, "spans-"+w.name+".csv")
	if err := tr.writeCSV(path); err != nil {
		return rep, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(out, "spans written to %s\n", path)
	rep.metrics = pick(layers, perLayerJSON)
	return rep, nil
}

// runOnce sets a fresh cluster up setups times; on each it measures an
// equal share of the window, verifies the data and tears it down. The
// shares are pooled, so no one cluster's luck sets a run's figures.
func runOnce(w workload, o options, tr *tracer) (*window, []time.Duration, error) {
	var times []time.Duration
	pooled := &window{w: w, d: delta{}}
	for i := 0; i < setups; i++ {
		win, t, err := setUpAndMeasure(w, o, o.seconds/setups, tr)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, t)
		pooled.merge(win)
	}
	return pooled, times, nil
}

func setUpAndMeasure(w workload, o options, d time.Duration, tr *tracer) (*window, time.Duration, error) {
	c, clients, t, err := setUp(w, o.data, o.seed, tr)
	if err != nil {
		return nil, 0, err
	}
	defer tearDown(c, clients)
	win, err := measure(c, clients, w, d, tr)
	if err == nil {
		err = verify(c, clients)
	}
	return win, t, err
}

// makeDataDir creates this run's data directory under base, or when base
// is empty under /dev/shm: the WAL is fsynced on every append, and on a
// disk whose log compaction stalls for seconds (see README.md) the
// benchmark would measure the stall instead of the program. Without a
// writable /dev/shm it falls back to out.
func makeDataDir(base, out string) (string, error) {
	if base == "" {
		if dir, err := os.MkdirTemp("/dev/shm", "realbench-"); err == nil {
			return dir, nil
		}
		base = out
	}
	return os.MkdirTemp(base, "realbench-data-")
}

func printJSON(out io.Writer, r report) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = value{m.value, m.unit}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Fprintln(out, string(b))
}

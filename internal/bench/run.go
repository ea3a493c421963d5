package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"rex/internal/apps"
	"rex/internal/cluster"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/shard"
)

// Every experiment in this package is one or more measured runs on the
// shared run harness (cluster.Run): build a topology on a fresh
// simulator, prefill it, start a fleet of clients that each loop on one
// op, and read op counts, latencies and replica counters off measurement
// windows. rig adds those windows to the harness. An experiment supplies
// only its topology (one group, G groups, a native host, or the SMR
// baseline), its per-client op, and what it reads off its windows.

// An op issues one request for its client and says how to count it: kind
// indexes the run's per-kind op counts, and timed adds the op's latency
// to the open window's histogram. A non-nil error retires the client.
type op func() (kind int, timed bool, err error)

// rig is one measured run. Like the harness, it runs on simulator tasks
// one at a time, so its fields need no lock.
type rig struct {
	*cluster.Run
	counts []uint64       // completed ops per kind since the fleet started
	lat    *obs.Histogram // the open window's latencies; nil between windows
	// counters, when set, reads the replica counters each window reports
	// as deltas.
	counters func() map[string]uint64
}

// CheckFailure is a measured run whose replicas failed the check every
// run ends in (cluster.Run.End): its numbers are not reported.
type CheckFailure struct {
	Point      string
	Violations []string
}

func (f *CheckFailure) Error() string {
	return fmt.Sprintf("%s: replica check failed: %s", f.Point, strings.Join(f.Violations, "; "))
}

// simulate runs body as the root task of a fresh simulator with the given
// core count, then ends the run: the fleet stops, and the replicas are
// checked. A violation panics with a *CheckFailure naming point.
func simulate(cores int, point string, body func(r *rig)) {
	var violations []string
	cluster.Simulate(cores, func(run *cluster.Run) {
		r := &rig{Run: run}
		body(r)
		violations, _ = r.End(nil)
	})
	if len(violations) > 0 {
		panic(&CheckFailure{Point: point, Violations: violations})
	}
}

// options is the base cluster configuration of every experiment: the
// harness's replica configuration with room for four outstanding
// requests per client.
func options(app apps.App, workers, clients int, seed int64) cluster.Options {
	o := cluster.Options{Template: cluster.SimConfig(workers, app.Timers, seed)}
	o.Template.MaxOutstanding = 4 * clients
	return o
}

// group boots one replica group of app and returns it with its primary.
func (r *rig) group(app apps.App, o cluster.Options) (*cluster.Cluster, int) {
	p, err := r.Start(app.Factory, o)
	if err != nil {
		panic(err)
	}
	return r.C, p
}

// groups boots one replica group of app per group of m.
func (r *rig) groups(app apps.App, m *shard.ShardMap, o cluster.Options) *cluster.MultiCluster {
	if err := r.StartMulti(app.Factory, m, o); err != nil {
		panic(err)
	}
	return r.MC
}

// setup sends app's setup requests, capped at max, through send in order.
func setup(app apps.App, seed int64, max int, send func(req []byte) error) {
	reqs := app.NewWorkload(seed).Setup()
	if len(reqs) > max {
		reqs = reqs[:max]
	}
	for _, req := range reqs {
		if err := send(req); err != nil {
			panic(fmt.Sprintf("bench: setup: %v", err))
		}
	}
}

// prefill writes keys [0, n) from 16 parallel workers so measured windows
// never pay first-touch costs: worker w puts keys w, w+16, ... through the
// put newPut(w) returns.
func (r *rig) prefill(n int, newPut func(w int) func(k int) error) {
	const workers = 16
	env.GoEach(r.Env, "prefill", workers, func(w int) {
		put := newPut(w)
		for k := w; k < n; k += workers {
			if err := put(k); err != nil {
				panic(fmt.Sprintf("bench: prefill: %v", err))
			}
		}
	}).Wait()
}

// clients starts n clients on the harness's fleet, client i looping on
// the op newOp(i) builds until the run ends; rate > 0 paces the fleet
// open loop (cluster.Run.Fleet).
func (r *rig) clients(n int, rate float64, newOp func(i int) op) {
	r.Fleet(n, rate, func(i int) cluster.Step {
		o := newOp(i)
		return func(int) (time.Duration, error) {
			t0 := r.Env.Now()
			kind, timed, err := o()
			if err != nil {
				return 0, err
			}
			d := r.Env.Now() - t0
			for len(r.counts) <= kind {
				r.counts = append(r.counts, 0)
			}
			r.counts[kind]++
			if timed && r.lat != nil {
				r.lat.Observe(d)
			}
			return 0, nil
		}
	})
}

// window is what one measurement window saw.
type window struct {
	secs     float64
	counts   []uint64 // ops completed per kind
	lat      *obs.Histogram
	counters map[string]uint64 // replica counter deltas
}

func (w window) count(kind int) uint64 {
	if kind < len(w.counts) {
		return w.counts[kind]
	}
	return 0
}

func (w window) total() (n uint64) {
	for _, c := range w.counts {
		n += c
	}
	return n
}

func (w window) rate(n uint64) float64 { return float64(n) / w.secs }

// ms is the q-quantile of the window's op latency in milliseconds.
func (w window) ms(q float64) float64 { return float64(w.lat.Quantile(q)) / float64(time.Millisecond) }

// measure opens a window, runs during, which decides how long the window
// stays open, and returns what the window saw.
func (r *rig) measure(during func()) window {
	c0 := append([]uint64(nil), r.counts...)
	r.lat = obs.NewHistogram()
	t0 := r.Env.Now()
	var k0 map[string]uint64
	if r.counters != nil {
		k0 = r.counters()
	}
	during()
	w := window{secs: (r.Env.Now() - t0).Seconds(), lat: r.lat, counts: make([]uint64, len(r.counts))}
	for k, n := range r.counts {
		w.counts[k] = n
		if k < len(c0) {
			w.counts[k] -= c0[k]
		}
	}
	r.lat = nil
	if r.counters != nil {
		w.counters = r.counters()
		for name, v := range k0 {
			w.counters[name] -= v
		}
	}
	return w
}

// measureFor returns a window d long.
func (r *rig) measureFor(d time.Duration) window {
	return r.measure(func() { r.Env.Sleep(d) })
}

// steady sleeps through warmup and returns the next measure-long window.
func (r *rig) steady(warmup, measure time.Duration) window {
	r.Env.Sleep(warmup)
	return r.measureFor(measure)
}

// replicaCounters reads the named metric counters, each summed over the
// run's live replicas, as the window counters.
func (r *rig) replicaCounters(names ...string) {
	r.counters = func() map[string]uint64 {
		sum := make(map[string]uint64, len(names))
		for _, n := range names {
			sum[n] = r.Sum(cluster.Counter(n))
		}
		return sum
	}
}

// appOp is client i's op in an app-driven run: the next request of its
// own workload stream (seed+i+1), sent through send.
func appOp(app apps.App, seed int64, i int, timed bool, send func(req []byte) error) op {
	wl := app.NewWorkload(seed + int64(i) + 1)
	return func() (int, bool, error) { return 0, timed, send(wl.Next()) }
}

// via sends requests through a cluster client.
func via(cl *cluster.Client) func([]byte) error {
	return func(req []byte) error {
		_, err := cl.Do(req)
		return err
	}
}

// key and value are the keyed suites' k-th key and their fixed value.
func key(k int) string { return fmt.Sprintf("key-%06d", k) }

func value(n int) []byte {
	val := make([]byte, n)
	for i := range val {
		val[i] = byte('a' + i%26)
	}
	return val
}

// routedPut writes key k through a shard router.
func routedPut(rt *shard.Router, write func(key string, val []byte) []byte, val []byte) func(k int) error {
	return func(k int) error {
		_, err := rt.Do([]byte(key(k)), write(key(k), val))
		return err
	}
}

// WriteJSON serializes a suite result as indented JSON.
func WriteJSON(w io.Writer, res any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rex/internal/apps"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/shard"
	"rex/internal/sim"
)

// Every experiment in this package is one or more measured runs, and
// every run has the same shape: build a topology on a fresh simulator,
// prefill it, start a fleet of clients that each loop on one op, and read
// op counts, latencies and replica counters off measurement windows. rig
// is that shared driver. An experiment supplies only its topology (one
// group, G groups, a native host, or the SMR baseline), its per-client
// op, and what it reads off its windows.

// An op issues one request for its client and says how to count it: kind
// indexes the run's per-kind op counts, and timed adds the op's latency
// to the open window's histogram. A non-nil error retires the client.
type op func() (kind int, timed bool, err error)

// rig is one measured run on a fresh simulator.
type rig struct {
	e        *sim.Env
	mu       env.Mutex
	stopped  bool
	counts   []uint64       // completed ops per kind since the fleet started
	lat      *obs.Histogram // the open window's latencies; nil between windows
	fleet    *env.Group
	teardown []func()
	// counters, when set, reads the replica counters each window reports
	// as deltas.
	counters func() map[string]uint64
}

// simulate runs body as the root task of a fresh simulator with the given
// core count, then stops the client fleet and tears the topology down.
func simulate(cores int, body func(r *rig)) {
	e := sim.New(cores)
	e.Run(func() {
		r := &rig{e: e, mu: e.NewMutex(), fleet: env.NewGroup(e)}
		body(r)
		r.mu.Lock()
		r.stopped = true
		r.mu.Unlock()
		r.fleet.Wait()
		for i := len(r.teardown) - 1; i >= 0; i-- {
			r.teardown[i]()
		}
	})
}

// options is the base cluster configuration of every experiment: 2 ms
// proposals, 20 ms heartbeats and status, 100 ms elections, and room for
// four outstanding requests per client.
func options(app apps.App, workers, clients int, seed int64) cluster.Options {
	return cluster.Options{
		Template: core.Config{
			Workers:         workers,
			Timers:          app.Timers,
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
			StatusEvery:     20 * time.Millisecond,
			MaxOutstanding:  4 * clients,
			Seed:            seed,
		},
	}
}

// group boots one replica group of app and returns it with its primary.
func (r *rig) group(app apps.App, o cluster.Options) (*cluster.Cluster, int) {
	c := cluster.New(r.e, app.Factory, o)
	if err := c.Start(); err != nil {
		panic(err)
	}
	r.teardown = append(r.teardown, c.Stop)
	p, err := c.WaitPrimary(5 * time.Second)
	if err != nil {
		panic(err)
	}
	return c, p
}

// groups boots one replica group of app per group of m.
func (r *rig) groups(app apps.App, m *shard.ShardMap, o cluster.Options) *cluster.MultiCluster {
	mc, err := cluster.NewMulti(r.e, app.Factory, m, o)
	if err == nil {
		err = mc.Start()
	}
	if err != nil {
		panic(err)
	}
	r.teardown = append(r.teardown, mc.Stop)
	if err := mc.WaitAllPrimaries(5 * time.Second); err != nil {
		panic(err)
	}
	return mc
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
	env.GoEach(r.e, "prefill", workers, func(w int) {
		put := newPut(w)
		for k := w; k < n; k += workers {
			if err := put(k); err != nil {
				panic(fmt.Sprintf("bench: prefill: %v", err))
			}
		}
	}).Wait()
}

// clients starts n clients, client i looping on the op newOp(i) builds
// until the run ends. rate > 0 paces the fleet open loop at rate ops/s in
// total: arrivals are held to a schedule rather than to completions, each
// client's phase staggered so arrivals spread evenly, and a client whose
// last op ran long fires at once to catch up.
func (r *rig) clients(n int, rate float64, newOp func(i int) op) {
	begin := r.e.Now()
	for i := 0; i < n; i++ {
		i := i
		r.fleet.Add(1)
		r.e.Go(fmt.Sprintf("client-%d", i), func() {
			defer r.fleet.Done()
			o := newOp(i)
			var interval time.Duration
			next := begin
			if rate > 0 {
				interval = time.Duration(float64(n) / rate * float64(time.Second))
				next += time.Duration(float64(i) / rate * float64(time.Second))
			}
			for {
				if rate > 0 {
					if now := r.e.Now(); now < next {
						r.e.Sleep(next - now)
					}
					next += interval
				}
				if r.stopping() {
					return
				}
				t0 := r.e.Now()
				kind, timed, err := o()
				if err != nil {
					return
				}
				d := r.e.Now() - t0
				r.mu.Lock()
				for len(r.counts) <= kind {
					r.counts = append(r.counts, 0)
				}
				r.counts[kind]++
				if timed && r.lat != nil {
					r.lat.Observe(d)
				}
				r.mu.Unlock()
			}
		})
	}
}

// stopping reports whether the run has ended.
func (r *rig) stopping() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
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
	r.mu.Lock()
	c0 := append([]uint64(nil), r.counts...)
	r.lat = obs.NewHistogram()
	r.mu.Unlock()
	t0 := r.e.Now()
	var k0 map[string]uint64
	if r.counters != nil {
		k0 = r.counters()
	}
	during()
	r.mu.Lock()
	w := window{secs: (r.e.Now() - t0).Seconds(), lat: r.lat, counts: make([]uint64, len(r.counts))}
	for k, n := range r.counts {
		w.counts[k] = n
		if k < len(c0) {
			w.counts[k] -= c0[k]
		}
	}
	r.lat = nil
	r.mu.Unlock()
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
	return r.measure(func() { r.e.Sleep(d) })
}

// steady sleeps through warmup and returns the next measure-long window.
func (r *rig) steady(warmup, measure time.Duration) window {
	r.e.Sleep(warmup)
	return r.measureFor(measure)
}

// replicaCounters sums the named metric counters over c's replicas.
func replicaCounters(c *cluster.Cluster, names ...string) func() map[string]uint64 {
	return func() map[string]uint64 {
		sum := make(map[string]uint64, len(names))
		for i := 0; i < c.Size(); i++ {
			if rep := c.Replica(i); rep != nil {
				m := rep.Metrics()
				for _, n := range names {
					sum[n] += m.Counter(n)
				}
			}
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

package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"

	"rex/internal/obs"
	"rex/internal/readpath"
	"rex/internal/server"
)

// active tracks every cluster that is up, so any exit path can stop it and
// remove its data directory.
var active = struct {
	sync.Mutex
	set map[*cluster]struct{}
}{set: make(map[*cluster]struct{})}

// setUp starts a fresh cluster in a new directory under base, waits for a
// primary and prefills the clients' keys. The clock runs from the first
// listen until the prefill is acknowledged.
func setUp(w workload, base string, seed int64, tr *tracer) (*cluster, []*client, time.Duration, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := newCluster(w.app, dir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, 0, err
	}
	active.Lock()
	active.set[c] = struct{}{}
	active.Unlock()
	clients := newClients(w, c.clientAddrList(), seed)
	fail := func(err error) (*cluster, []*client, time.Duration, error) {
		tearDown(c, clients)
		return nil, nil, 0, err
	}
	if _, err := c.waitPrimary(10 * time.Second); err != nil {
		return fail(err)
	}
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = cl.prefill(w.prefill / numClients)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("set-up: %w (%s)", err, c.describe()))
		}
	}
	return c, clients, time.Since(start), nil
}

// tearDown stops the cluster, closes the clients and removes the data.
func tearDown(c *cluster, clients []*client) {
	for _, cl := range clients {
		cl.close()
	}
	c.close()
	os.RemoveAll(c.dir)
	active.Lock()
	delete(active.set, c)
	active.Unlock()
}

// abandonAll is the last-resort exit path: it stops every active cluster,
// giving up after a few seconds, and removes every data directory.
func abandonAll() {
	active.Lock()
	var cs []*cluster
	for c := range active.set {
		cs = append(cs, c)
	}
	active.Unlock()
	done := make(chan struct{})
	go func() {
		for _, c := range cs {
			c.close()
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
	}
	for _, c := range cs {
		os.RemoveAll(c.dir)
	}
}

// describeActive reports every active cluster's replicas.
func describeActive() string {
	active.Lock()
	defer active.Unlock()
	s := ""
	for c := range active.set {
		s += c.describe() + "\n"
	}
	return s
}

// delta accumulates the change of replica metrics over the window, summed
// over replicas and incarnations: counters by their increase, histograms
// by their count and sum.
type delta map[string]*agg

type agg struct{ n, sum float64 }

func (d delta) at(name string) *agg {
	a := d[name]
	if a == nil {
		a = &agg{}
		d[name] = a
	}
	return a
}

func (d delta) add(now, base obs.Snapshot) {
	for k, v := range now.Counters {
		d.at(k).sum += float64(v - base.Counters[k])
	}
	for k, h := range now.Histograms {
		a, b := d.at(k), base.Histograms[k]
		a.n += float64(h.Count - b.Count)
		a.sum += (h.Sum - b.Sum).Seconds()
	}
	for k, h := range now.Sizes {
		a, b := d.at(k), base.Sizes[k]
		a.n += float64(h.Count - b.Count)
		a.sum += float64(h.Sum - b.Sum)
	}
}

// total is a counter's increase or a histogram's sum (seconds for
// latency histograms).
func (d delta) total(name string) float64 { return d.at(name).sum }

// count is a histogram's number of observations.
func (d delta) count(name string) float64 { return d.at(name).n }

// mean is a histogram's mean observation, 0 when empty.
func (d delta) mean(name string) float64 {
	a := d.at(name)
	if a.n == 0 {
		return 0
	}
	return a.sum / a.n
}

// killRec is one stop and restart of the primary during failover.
type killRec struct {
	kill   time.Time
	rejoin time.Duration // restart until within 16 instances of the primary, capped at the next kill
}

// window is measured load: one stretch on one set-up cluster, or several
// merged.
type window struct {
	w       workload
	dur     time.Duration
	clients []*client
	d       delta
	cpu     time.Duration
	alloc   uint64
	heap    uint64 // live heap after the stretch, summed over merged stretches
	windows int    // stretches merged
	kills   []killRec
	spans   []span // traced runs only
}

func (win *window) seconds() float64 { return win.dur.Seconds() }

// merge pools o's load into win.
func (win *window) merge(o *window) {
	win.dur += o.dur
	win.clients = append(win.clients, o.clients...)
	for k, a := range o.d {
		b := win.d.at(k)
		b.n += a.n
		b.sum += a.sum
	}
	win.cpu += o.cpu
	win.alloc += o.alloc
	win.heap += o.heap
	win.windows += o.windows
	win.kills = append(win.kills, o.kills...)
	win.spans = append(win.spans, o.spans...)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// measure runs the workload's load for d and collects what the window saw.
func measure(c *cluster, clients []*client, w workload, d time.Duration, tr *tracer) (*window, error) {
	for _, cl := range clients {
		cl.resetSamples()
	}
	win := &window{w: w, clients: clients, d: delta{}, windows: 1}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	for _, n := range c.live() {
		n.base = n.rep.Metrics()
	}
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.interval > 0 {
				cl.runOpen(start, end, tr)
			} else {
				cl.runClosed(end, tr)
			}
		}()
	}
	var killErr error
	if w.killEvery > 0 {
		killErr = runKills(c, win, start, end)
	}
	wg.Wait()
	stop := time.Now()
	win.dur = stop.Sub(start)
	for _, n := range c.live() {
		win.d.add(n.rep.Metrics(), n.base)
	}
	win.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	win.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	// The live heap of the loaded cluster (three replicas and the clients).
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	win.heap = ms1.HeapAlloc
	if tr != nil {
		win.spans = tr.window(start, stop)
	}
	if killErr != nil {
		return nil, killErr
	}
	for _, cl := range clients {
		if cl.err != nil {
			return nil, cl.err
		}
	}
	return win, nil
}

// runKills stops the primary every killEvery (the first half a period into
// the window) and restarts it killDown later, as long as the restart and
// its rejoin fit in the window.
func runKills(c *cluster, win *window, start, end time.Time) error {
	w := win.w
	for i := 0; ; i++ {
		at := start.Add(w.killEvery/2 + time.Duration(i)*w.killEvery)
		if at.Add(w.killDown + w.killEvery/2).After(end) {
			return nil
		}
		time.Sleep(time.Until(at))
		p, err := c.waitPrimary(2 * time.Second)
		if err != nil {
			return fmt.Errorf("kill %d: %w", i, err)
		}
		k := killRec{kill: time.Now()}
		old := c.kill(p.id)
		win.d.add(old.rep.Metrics(), old.base)
		time.Sleep(time.Until(k.kill.Add(w.killDown)))
		n, err := c.restart(p.id)
		if err != nil {
			return err
		}
		// A new incarnation's registry starts empty: its zero base makes its
		// whole life, rebuild included, count toward the window.
		n.base = obs.Snapshot{}
		k.rejoin = waitRejoin(c, n, at.Add(w.killEvery))
		win.kills = append(win.kills, k)
	}
}

// waitRejoin returns how long after now n came within 16 instances of the
// primary's applied frontier, or how long it waited if it had not by
// deadline.
func waitRejoin(c *cluster, n *node, deadline time.Time) time.Duration {
	start := time.Now()
	for time.Now().Before(deadline) {
		if p := c.primary(); p != nil {
			if p == n || n.rep.Stats().Applied+16 >= p.rep.Stats().Applied {
				break
			}
		}
		time.Sleep(time.Millisecond)
	}
	return time.Since(start)
}

// verify reads a sample of every client's keys back once the load has
// stopped: at linearizable level through the primary, which must return
// every acknowledged write, and at eventual level from each replica, which
// must agree with it once every replica has applied what the primary had
// applied when the load stopped and replayed it.
func verify(c *cluster, clients []*client) error {
	p, err := c.waitPrimary(10 * time.Second)
	if err != nil {
		return err
	}
	if err := c.waitApplied(p.rep.Stats().Applied, 10*time.Second); err != nil {
		return err
	}
	addrs := c.clientAddrList()
	lin := server.NewClient(100, addrs)
	defer lin.Close()
	per := make([]*server.Client, replicas)
	for i := range per {
		per[i] = server.NewClient(uint64(101+i), []string{addrs[i]})
		defer per[i].Close()
	}
	read := func(cl *server.Client, level readpath.Level, q []byte) ([]byte, error) {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		return cl.QueryLevelCtx(ctx, level, q)
	}
	for _, cl := range clients {
		for _, k := range cl.sampleKeys(200) {
			q := cl.w.get(keyName(k))
			want, err := read(lin, readpath.Linearizable, q)
			if err != nil {
				return fmt.Errorf("verify: linearizable read of %s: %w", keyName(k), err)
			}
			found, val, err := decodeGet(want)
			if err == nil {
				err = cl.checkValue(k, found, val)
			}
			if err != nil {
				return fmt.Errorf("%w: verify: client %d: %v", errIncorrect, cl.id, err)
			}
			for i, pc := range per {
				// Applied instances may still be replaying: this retry, not
				// waitApplied, is what waits for replay to catch up.
				deadline := time.Now().Add(2 * time.Second)
				for {
					got, err := read(pc, readpath.Eventual, q)
					if err == nil && bytes.Equal(got, want) {
						break
					}
					if time.Now().After(deadline) {
						return fmt.Errorf("%w: verify: replica %d reads %s as %q (err %v), primary as %q",
							errIncorrect, i, keyName(k), got, err, want)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
	}
	return nil
}

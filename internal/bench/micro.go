package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/rexsync"
	"rex/internal/sched"
	"rex/internal/wire"
)

// microSM is the §6.4 micro-benchmark: each request computes for a fixed
// total, part of it while holding a lock drawn from a pool of l locks, so
// the contention probability is p = 1/l and the lock granularity is the
// in-lock percentage.
type microSM struct {
	locks    []*rexsync.Lock
	counters []uint64
	total    time.Duration
	pctIn    int
}

// newMicroApp builds the micro-benchmark as an apps.App.
func newMicroApp(numLocks, pctInLock int, total time.Duration) apps.App {
	factory := func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		s := &microSM{total: total, pctIn: pctInLock}
		for i := 0; i < numLocks; i++ {
			s.locks = append(s.locks, rexsync.NewLock(rt, fmt.Sprintf("micro-%d", i)))
		}
		s.counters = make([]uint64, numLocks)
		return s
	}
	return apps.App{
		Name:       fmt.Sprintf("micro-l%d-p%d", numLocks, pctInLock),
		Title:      "lock-granularity micro-benchmark",
		Primitives: []string{"Lock"},
		Factory:    factory,
		NewWorkload: func(seed int64) apps.Workload {
			return &microWorkload{rng: rand.New(rand.NewSource(seed)), locks: numLocks}
		},
	}
}

type microWorkload struct {
	rng   *rand.Rand
	locks int
}

func (w *microWorkload) Setup() [][]byte { return nil }
func (w *microWorkload) Next() []byte {
	e := wire.NewEncoder(nil)
	e.Uvarint(uint64(w.rng.Intn(w.locks)))
	return e.Bytes()
}
func (w *microWorkload) Query() []byte { return w.Next() }

// Apply implements core.StateMachine.
func (s *microSM) Apply(ctx *core.Ctx, req []byte) []byte {
	d := wire.NewDecoder(req)
	idx := int(d.Uvarint()) % len(s.locks)
	inside := s.total * time.Duration(s.pctIn) / 100
	outside := s.total - inside
	ctx.Compute(outside)
	w := ctx.Worker()
	s.locks[idx].Lock(w)
	ctx.Compute(inside)
	s.counters[idx]++
	s.locks[idx].Unlock(w)
	return []byte{1}
}

// WriteCheckpoint implements core.StateMachine.
func (s *microSM) WriteCheckpoint(w io.Writer) error {
	e := wire.NewEncoder(nil)
	for _, c := range s.counters {
		e.Uvarint(c)
	}
	_, err := w.Write(e.Bytes())
	return err
}

// ReadCheckpoint implements core.StateMachine.
func (s *microSM) ReadCheckpoint(r io.Reader) error {
	buf, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	d := wire.NewDecoder(buf)
	for i := range s.counters {
		s.counters[i] = d.Uvarint()
	}
	return nil
}

// Fig8Config parameterizes the §6.4 experiments. HandlerTotal is the
// paper's "approximately 10 milliseconds" of computation per request,
// scaled down by default to keep simulations fast (the shape depends only
// on the in-lock fraction and the contention probability).
type Fig8Config struct {
	Threads      int
	Cores        int
	HandlerTotal time.Duration
	Warmup       time.Duration
	Measure      time.Duration
	Seed         int64
}

// DefaultFig8 uses the paper's 16-core setting.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Threads:      16,
		Cores:        16,
		HandlerTotal: time.Millisecond,
		Warmup:       200 * time.Millisecond,
		Measure:      time.Second,
		Seed:         42,
	}
}

// Fig8aRow is one cell of Figure 8(a): Rex throughput for a given lock
// granularity (percent of computation inside the lock) and contention
// probability.
type Fig8aRow struct {
	PctInLock   int
	ContentionP float64
	Rex         float64
}

func locksForP(p float64) int {
	l := int(1/p + 0.5)
	if l < 1 {
		l = 1
	}
	return l
}

// Fig8a reproduces Figure 8(a): the impact of lock granularity under
// increasing contention probability.
func Fig8a(cfg Fig8Config, pcts []int, ps []float64) []Fig8aRow {
	var rows []Fig8aRow
	for _, pct := range pcts {
		for _, p := range ps {
			app := newMicroApp(locksForP(p), pct, cfg.HandlerTotal)
			r := RunRex(RunConfig{
				App: app, Threads: cfg.Threads, Cores: cfg.Cores,
				Warmup: cfg.Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
			})
			rows = append(rows, Fig8aRow{PctInLock: pct, ContentionP: p, Rex: r.Throughput})
		}
	}
	return rows
}

// PrintFig8a renders Figure 8(a).
func PrintFig8a(w io.Writer, rows []Fig8aRow) {
	byPct := map[int]map[float64]float64{}
	var pcts []int
	var ps []float64
	seenP := map[float64]bool{}
	for _, r := range rows {
		if byPct[r.PctInLock] == nil {
			byPct[r.PctInLock] = map[float64]float64{}
			pcts = append(pcts, r.PctInLock)
		}
		byPct[r.PctInLock][r.ContentionP] = r.Rex
		if !seenP[r.ContentionP] {
			seenP[r.ContentionP] = true
			ps = append(ps, r.ContentionP)
		}
	}
	sort.Ints(pcts)
	sort.Float64s(ps)
	t := &Table{
		Title: "Figure 8(a): Rex throughput (req/s) by lock granularity and contention probability",
		Cols:  []string{"contention p"},
	}
	for _, pct := range pcts {
		t.Cols = append(t.Cols, fmt.Sprintf("%d%% in lock", pct))
	}
	for _, p := range ps {
		row := []string{fmt.Sprintf("%g", p)}
		for _, pct := range pcts {
			row = append(row, f0(byPct[pct][p]))
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper (§6.4): below p=0.05 granularity barely matters; at p=0.1 the 100%-in-lock case",
		"loses roughly half its throughput while 10% barely degrades.")
	t.Fprint(w)
}

// Fig8bRow is one x-axis point of Figure 8(b): native vs Rex as contention
// grows, at 10% in-lock computation.
type Fig8bRow struct {
	ContentionP float64
	Native      float64
	Rex         float64
}

// Fig8b reproduces Figure 8(b).
func Fig8b(cfg Fig8Config, ps []float64) []Fig8bRow {
	var rows []Fig8bRow
	for _, p := range ps {
		app := newMicroApp(locksForP(p), 10, cfg.HandlerTotal)
		rc := RunConfig{
			App: app, Threads: cfg.Threads, Cores: cfg.Cores,
			Warmup: cfg.Warmup, Measure: cfg.Measure, Seed: cfg.Seed,
		}
		native := RunNative(rc)
		rex := RunRex(rc)
		rows = append(rows, Fig8bRow{ContentionP: p, Native: native.Throughput, Rex: rex.Throughput})
	}
	return rows
}

// PrintFig8b renders Figure 8(b).
func PrintFig8b(w io.Writer, rows []Fig8bRow) {
	t := &Table{
		Title: "Figure 8(b): native vs Rex under increasing lock contention (10% in lock)",
		Cols:  []string{"contention p", "native (req/s)", "Rex (req/s)", "Rex/native"},
	}
	for _, r := range rows {
		ratio := 0.0
		if r.Native > 0 {
			ratio = r.Rex / r.Native
		}
		t.AddRow(fmt.Sprintf("%g", r.ContentionP), f0(r.Native), f0(r.Rex), f2(ratio))
	}
	t.Notes = append(t.Notes,
		"paper (§6.4): Rex stays within 10-20% of native below p=0.5; both collapse together above.")
	t.Fprint(w)
}

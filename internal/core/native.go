package core

import (
	"fmt"
	"math/rand"

	"rex/internal/env"
	"rex/internal/sched"
)

// NativeHost runs a state machine unreplicated, with all primitives in
// native mode: the paper's "native" baseline (§6.3) and the harness for
// application unit tests. Background timers fire by time on their own
// tasks.
type NativeHost struct {
	Env env.Env
	RT  *sched.Runtime
	SM  StateMachine

	seed    int64
	timers  []timerSpec
	mu      env.Mutex
	stopped bool
}

// NewNativeHost constructs the application with the given number of
// request workers; timers must match the factory's AddTimer count. Call
// StartTimers to begin background tasks.
func NewNativeHost(e env.Env, workers, timers int, seed int64, f Factory) (*NativeHost, error) {
	rt := sched.NewRuntime(e, workers+timers, sched.ModeNative)
	host := &TimerHost{}
	sm := f(rt, host)
	if len(host.specs) != timers {
		return nil, fmt.Errorf("core: factory registered %d timers, caller said %d", len(host.specs), timers)
	}
	return &NativeHost{
		Env:    e,
		RT:     rt,
		SM:     sm,
		seed:   seed,
		timers: host.specs,
		mu:     e.NewMutex(),
	}, nil
}

// Ctx returns the execution context for request worker i (0 ≤ i <
// workers).
func (h *NativeHost) Ctx(i int) *Ctx {
	return &Ctx{w: h.RT.Worker(i), e: h.Env, rng: rand.New(rand.NewSource(h.seed ^ int64(i)<<32))}
}

// Apply runs one request on worker i's logical thread. The caller must
// ensure at most one request runs per worker at a time.
func (h *NativeHost) Apply(i int, req []byte) []byte {
	return h.SM.Apply(h.Ctx(i), req)
}

// StartTimers launches the background tasks.
func (h *NativeHost) StartTimers() {
	for j, spec := range h.timers {
		ti := h.RT.NumThreads() - len(h.timers) + j
		ctx := &Ctx{w: h.RT.Worker(ti), e: h.Env, rng: rand.New(rand.NewSource(h.seed ^ int64(ti)<<32))}
		h.Env.Go(fmt.Sprintf("native-timer-%s", spec.name), func() {
			for {
				h.Env.Sleep(spec.interval)
				h.mu.Lock()
				stopped := h.stopped
				h.mu.Unlock()
				if stopped {
					return
				}
				spec.cb(ctx)
			}
		})
	}
}

// Stop halts background tasks (after their current firing).
func (h *NativeHost) Stop() {
	h.mu.Lock()
	h.stopped = true
	h.mu.Unlock()
}

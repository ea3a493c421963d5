// Quickstart: a replicated, multi-threaded counter service in ~100 lines.
//
// It defines a tiny state machine with two counters protected by separate
// Rex locks, assembles a 3-replica cluster on the deterministic simulator,
// runs concurrent clients against it, and shows that every replica
// converges to the same state.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"rex"
)

// Counters is the application: named counters, each guarded by its own
// Rex lock so increments to different counters run concurrently.
type Counters struct {
	locks  map[string]*rex.Lock
	values map[string]int64
}

func newCounters(rt *rex.Runtime, host *rex.TimerHost) rex.StateMachine {
	c := &Counters{
		locks:  make(map[string]*rex.Lock),
		values: make(map[string]int64),
	}
	// Resources must be created deterministically: fix the counter set up
	// front.
	for _, name := range []string{"apples", "oranges"} {
		c.locks[name] = rex.NewLock(rt, "counter-"+name)
	}
	return c
}

// Apply handles "add <name> <n>" and "get <name>".
func (c *Counters) Apply(ctx *rex.Ctx, req []byte) []byte {
	parts := strings.Fields(string(req))
	lock, ok := c.locks[parts[1]]
	if !ok {
		return []byte("unknown counter")
	}
	w := ctx.Worker()
	switch parts[0] {
	case "add":
		n, _ := strconv.ParseInt(parts[2], 10, 64)
		lock.Lock(w)
		c.values[parts[1]] += n
		v := c.values[parts[1]]
		lock.Unlock(w)
		return []byte(strconv.FormatInt(v, 10))
	case "get":
		lock.Lock(w)
		v := c.values[parts[1]]
		lock.Unlock(w)
		return []byte(strconv.FormatInt(v, 10))
	}
	return []byte("bad request")
}

func (c *Counters) WriteCheckpoint(w io.Writer) error {
	for _, name := range []string{"apples", "oranges"} {
		fmt.Fprintf(w, "%s=%d\n", name, c.values[name])
	}
	return nil
}

func (c *Counters) ReadCheckpoint(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if name, val, ok := strings.Cut(line, "="); ok {
			c.values[name], _ = strconv.ParseInt(val, 10, 64)
		}
	}
	return nil
}

func main() {
	// A simulated 8-core environment; swap in rex.NewRealEnv() plus real
	// transports (see cmd/rexd) for a real deployment.
	e := rex.NewSimEnv(8)
	e.Run(func() {
		c := rex.NewCluster(e, newCounters, rex.ClusterOptions{
			Replicas: 3,
			Template: rex.Config{Workers: 4}, // every replica's configuration
		})
		if err := c.Start(); err != nil {
			panic(err)
		}
		if _, err := c.WaitPrimary(5 * time.Second); err != nil {
			panic(err)
		}

		// Two clients hammer different counters concurrently.
		g := rex.NewGroup(e)
		for i, name := range []string{"apples", "oranges"} {
			i, name := i, name
			g.Add(1)
			e.Go("client", func() {
				defer g.Done()
				cl := c.NewClient(uint64(i + 1))
				for j := 0; j < 50; j++ {
					if _, err := cl.Do([]byte("add " + name + " 2")); err != nil {
						panic(err)
					}
				}
			})
		}
		g.Wait()

		cl := c.NewClient(99)
		apples, _ := cl.Do([]byte("get apples"))
		oranges, _ := cl.Do([]byte("get oranges"))
		fmt.Printf("apples=%s oranges=%s (want 100 each)\n", apples, oranges)

		// Show replica convergence: every replica's checkpoint is equal.
		e.Sleep(200 * time.Millisecond)
		var states []string
		for i, r := range c.Replicas {
			var buf bytes.Buffer
			r.StateMachineForTest().WriteCheckpoint(&buf)
			states = append(states, buf.String())
			fmt.Printf("replica %d (%v):\n%s", i, r.Role(), buf.String())
		}
		if states[0] == states[1] && states[1] == states[2] {
			fmt.Println("all replicas converged ✓")
		} else {
			fmt.Println("replicas diverged ✗")
		}
		c.Stop()
	})
}

package rebalance_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/check"
	"rex/internal/cluster"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/readpath"
	"rex/internal/shard"
	"rex/internal/wire"
)

// TestMigrationWindowProperty is the migration-window property test (run
// under -race in CI): two groups under continuous keyed writes and
// session reads while the coordinator splits group 0's range, moves the
// new child range to group 1 through a source-primary crash, and merges
// group 1's ranges back together. Afterwards every group's replicas must
// converge to byte-identical state, every key must read back at a
// version no older than its last confirmed write, and every client's
// session event sequence must satisfy read-your-writes and monotonic
// reads — i.e. session guarantees survive the ownership flips.
func TestMigrationWindowProperty(t *testing.T) {
	var failure string
	fail := func(format string, args ...any) {
		if failure == "" {
			failure = fmt.Sprintf(format, args...)
		}
	}
	const (
		clients  = 4
		keysPer  = 8
		splitAt  = uint64(1) << 62 // interior of group 0's initial range
		mergeAt  = uint64(1) << 63 // group 1's original start, post-move
		moveDest = 1
	)
	// Per-client outcome tracking, merged after the load stops. Writes
	// whose outcome was unobserved (client error) leave a gap between
	// confirmed and attempted; readback accepts any version in it.
	type keyState struct {
		confirmed uint64 // last version whose write returned OK
		attempted uint64 // last version submitted at all
	}
	tracks := make([]map[string]*keyState, clients)
	events := make([][]check.SessionEvent, clients)

	cluster.Simulate(4, func(r *cluster.Run) {
		e := r.Env
		m, err := shard.NewShardMap(1, 2, 3, 3)
		if err != nil {
			fail("map: %v", err)
			return
		}
		if err := r.StartMulti(hashdb.New(hashdb.DefaultOptions()), m, cluster.Options{
			Template: core.Config{
				Workers:         2,
				ReadWorkers:     2,
				Timers:          hashdb.Timers(),
				HeartbeatEvery:  20 * time.Millisecond,
				ElectionTimeout: 100 * time.Millisecond,
				CheckpointEvery: 200 * time.Millisecond,
				Seed:            21,
			},
			LiveRebalance: true,
		}); err != nil {
			fail("%v", err)
			return
		}
		mc := r.MC

		mu := e.NewMutex()
		stop := false
		load := env.GoEach(e, "rebalance-client", clients, func(ci int) {
			// Routers fetch the live map with client id idBase+groups, so
			// space idBases by more than groups+1 to keep ids unique.
			router := mc.NewRouter(uint64(100 + 64*ci))
			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			track := make(map[string]*keyState, keysPer)
			tracks[ci] = track
			sessKey := fmt.Sprintf("sess-%d", ci)
			var sessVer uint64
			for seq := 0; ; seq++ {
				mu.Lock()
				s := stop
				mu.Unlock()
				if s {
					return
				}
				if rng.Intn(3) == 0 {
					// Session traffic on the client's private key: a
					// versioned write, then a session-level read that must
					// observe at least the confirmed floor.
					if rng.Intn(2) == 0 {
						next := sessVer + 1
						_, err := router.Do([]byte(sessKey),
							hashdb.SetReq(sessKey, []byte(strconv.FormatUint(next, 10))))
						if err == nil {
							sessVer = next
							events[ci] = append(events[ci], check.SessionEvent{
								Client: uint64(ci), Kind: check.SessionWrite, Version: next,
							})
						}
					} else {
						resp, err := router.QueryLevel([]byte(sessKey), readpath.Session, hashdb.GetReq(sessKey))
						if err == nil {
							events[ci] = append(events[ci], check.SessionEvent{
								Client: uint64(ci), Kind: check.SessionRead,
								Version: getVersion(resp), Level: "session",
							})
						}
					}
				} else {
					key := fmt.Sprintf("c%d-k%d", ci, rng.Intn(keysPer))
					st := track[key]
					if st == nil {
						st = &keyState{}
						track[key] = st
					}
					next := st.attempted + 1
					st.attempted = next
					_, err := router.Do([]byte(key),
						hashdb.SetReq(key, []byte(strconv.FormatUint(next, 10))))
					if err == nil {
						st.confirmed = next
					}
				}
				e.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
			}
		})

		// Let the load warm up, then run the rebalance plan: split, move
		// the new child range through a source-primary crash, merge the
		// destination's ranges back together.
		e.Sleep(300 * time.Millisecond)
		cd := mc.NewCoordinator(9000, obs.NewRegistry())
		if _, err := cd.Split(splitAt); err != nil {
			fail("split: %v", err)
			return
		}
		e.Sleep(100 * time.Millisecond)

		killedP := -1
		killer := env.GoEach(e, "rebalance-killer", 1, func(int) {
			// Land the crash inside the move's warm-copy/freeze window.
			e.Sleep(20 * time.Millisecond)
			p, err := mc.CrashGroupPrimary(0)
			if err == nil {
				mu.Lock()
				killedP = p
				mu.Unlock()
			}
		})
		if _, err := cd.Move(splitAt, moveDest); err != nil {
			fail("move: %v", err)
			return
		}
		killer.Wait()
		mu.Lock()
		p := killedP
		mu.Unlock()
		if p < 0 {
			fail("nemesis found no primary to crash")
			return
		}
		e.Sleep(200 * time.Millisecond)
		if err := mc.Groups[0].Restart(p); err != nil {
			fail("restart: %v", err)
			return
		}
		e.Sleep(200 * time.Millisecond)
		if _, err := cd.Merge(mergeAt); err != nil {
			fail("merge: %v", err)
			return
		}
		fm, _, err := cd.FetchMap()
		if err != nil {
			fail("final map: %v", err)
			return
		}
		if fm.Version < m.Version+3 {
			fail("final map v%d, want at least v%d (split+move+merge)", fm.Version, m.Version+3)
			return
		}
		if g := fm.GroupFor([]byte(probeKeyIn(splitAt, mergeAt))); g != moveDest {
			fail("moved span routes to group %d, want %d\n%s", g, moveDest, fm)
			return
		}

		// Drain the load and let every group settle.
		e.Sleep(300 * time.Millisecond)
		mu.Lock()
		stop = true
		mu.Unlock()
		load.Wait()

		if v, _ := r.End(nil); len(v) > 0 {
			fail("%s", v[0])
			return
		}

		// Every tracked key reads back at a version in the window between
		// its last confirmed and last attempted write.
		router := mc.NewRouter(8000)
		for ci, track := range tracks {
			for key, st := range track {
				resp, err := router.Do([]byte(key), hashdb.GetReq(key))
				if err != nil {
					fail("readback %s: %v", key, err)
					return
				}
				got := getVersion(resp)
				if got < st.confirmed || got > st.attempted {
					fail("client %d key %s read version %d, want within [%d, %d]",
						ci, key, got, st.confirmed, st.attempted)
					return
				}
			}
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}

	var all []check.SessionEvent
	for _, evs := range events {
		all = append(all, evs...)
	}
	if len(all) == 0 {
		t.Fatal("no session events recorded")
	}
	for _, v := range check.CheckSessionReads(all) {
		t.Errorf("session violation: %s", v)
	}
}

// getVersion decodes a hashdb Get reply into the stored version number
// (0 when the key is absent).
func getVersion(resp []byte) uint64 {
	d := wire.NewDecoder(resp)
	if !d.Bool() {
		return 0
	}
	v, _ := strconv.ParseUint(string(d.BytesVal()), 10, 64)
	return v
}

// probeKeyIn brute-forces a key whose hash lands in [lo, hi).
func probeKeyIn(lo, hi uint64) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("probe-%d", i)
		if h := shard.HashKey([]byte(k)); h >= lo && h < hi {
			return k
		}
	}
}

package paxos

import (
	"fmt"
	"testing"
	"time"

	"rex/internal/env"
	"rex/internal/sim"
	"rex/internal/storage"
	"rex/internal/transport"
	"rex/internal/wire"
)

// Record builders for hand-made logs.

func promisedRec(b Ballot) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(recPromised)
	e.Uvarint(b.Round)
	e.Uvarint(uint64(b.Node))
	return e.Bytes()
}

func acceptedRec(inst uint64, b Ballot, val string) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(recAccepted)
	e.Uvarint(inst)
	e.Uvarint(b.Round)
	e.Uvarint(uint64(b.Node))
	e.BytesVal([]byte(val))
	return e.Bytes()
}

func chosenRecord(inst uint64, val string) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(recChosen)
	e.Uvarint(inst)
	e.BytesVal([]byte(val))
	return e.Bytes()
}

func chosenRefRec(inst uint64, b Ballot) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(recChosenRef)
	e.Uvarint(inst)
	e.Uvarint(b.Round)
	e.Uvarint(uint64(b.Node))
	return e.Bytes()
}

func advanceRec(to uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Byte(recAdvance)
	e.Uvarint(to)
	return e.Bytes()
}

// recoverFrom builds a node over a fresh log holding recs.
func recoverFrom(t testing.TB, recs [][]byte) *Node {
	t.Helper()
	e := env.NewReal()
	log, err := storage.OpenLog(e, storage.NewMemDisk(), "wal", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{ID: 0, N: 3, Env: e, Log: log})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	return n
}

func TestRecoverResolvesChosenRefs(t *testing.T) {
	b1, b2 := Ballot{Round: 1}, Ballot{Round: 2, Node: 1}
	for _, tc := range []struct {
		name     string
		recs     [][]byte
		base     uint64
		want     []string
		accepted []uint64 // instances whose accepted entries survive
	}{{
		name: "a reference to the ballot accepted here",
		recs: [][]byte{acceptedRec(0, b1, "a"), chosenRefRec(0, b1), acceptedRec(1, b1, "b"), chosenRefRec(1, b1)},
		want: []string{"a", "b"},
	}, {
		name: "a higher-ballot accepted record after the reference",
		recs: [][]byte{chosenRecord(0, "a"), chosenRefRec(1, b1), acceptedRec(1, b2, "b")},
		want: []string{"a", "b"},
	}, {
		name:     "the accepted ballot is below the reference's",
		recs:     [][]byte{acceptedRec(0, b1, "a"), chosenRefRec(0, b1), acceptedRec(1, b1, "stale"), chosenRefRec(1, b2), chosenRecord(2, "c")},
		want:     []string{"a"},
		accepted: []uint64{1},
	}, {
		name: "no accepted record",
		recs: [][]byte{chosenRecord(0, "a"), chosenRefRec(1, b1), chosenRecord(2, "c")},
		want: []string{"a"},
	}, {
		name:     "a chosen record never written",
		recs:     [][]byte{acceptedRec(0, b1, "a"), chosenRefRec(0, b1), acceptedRec(1, b1, "b")},
		want:     []string{"a"},
		accepted: []uint64{1},
	}, {
		name: "full records past an advance marker",
		recs: [][]byte{chosenRecord(3, "x"), advanceRec(5), acceptedRec(5, b1, "e"), chosenRefRec(5, b1), chosenRecord(6, "f")},
		base: 5,
		want: []string{"e", "f"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			n := recoverFrom(t, tc.recs)
			base, vals := n.Chosen()
			got := make([]string, len(vals))
			for i, v := range vals {
				got[i] = string(v)
			}
			if base != tc.base || fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Fatalf("recovered base %d %q, want base %d %q", base, got, tc.base, tc.want)
			}
			if n.ChosenSeq() != base+uint64(len(vals)) {
				t.Fatalf("ChosenSeq %d, want %d", n.ChosenSeq(), base+uint64(len(vals)))
			}
			if len(n.accepted) != len(tc.accepted) {
				t.Fatalf("accepted entries %v, want instances %v", n.accepted, tc.accepted)
			}
			for _, inst := range tc.accepted {
				if _, ok := n.accepted[inst]; !ok {
					t.Fatalf("accepted entry %d dropped: %v", inst, n.accepted)
				}
			}
		})
	}
}

// FuzzRecoverLog feeds arbitrary sequences of well-formed records through
// recovery: accepted records, full chosen records, chosen references whose
// accepted record is missing, lower or higher, advance markers and
// promises. Recovery must not fail or panic, and every value it recovers
// must be one the sequence chose there: a full chosen record's, or an
// accepted value at or above a reference's ballot.
func FuzzRecoverLog(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 2, 0, 1, 1, 1, 1, 2, 1, 2, 0, 3, 0})
	f.Add([]byte{1, 2, 2, 3, 2, 2, 1, 0, 3, 4, 0, 0, 1, 2, 1, 1})
	f.Add([]byte{1, 0, 1, 1, 2, 0, 2, 0, 1, 1, 3, 0, 2, 1, 2, 0, 4, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		type key struct {
			inst uint64
			val  string
		}
		full := map[key]bool{}                     // (inst, value) of full chosen records
		refs := map[uint64][]Ballot{}              // references per instance
		accepted := map[uint64]map[string]Ballot{} // highest ballot each value was accepted at
		var recs [][]byte
		for i := 0; i+3 < len(data); i += 4 {
			op, inst := data[i]%5, uint64(data[i+1]%8)
			b := Ballot{Round: uint64(data[i+2] % 4), Node: uint32(data[i+3] % 3)}
			val := fmt.Sprintf("v%d", data[i+3]%4)
			switch op {
			case 0:
				recs = append(recs, promisedRec(b))
			case 1:
				recs = append(recs, acceptedRec(inst, b, val))
				if accepted[inst] == nil {
					accepted[inst] = map[string]Ballot{}
				}
				if old, ok := accepted[inst][val]; !ok || old.Less(b) {
					accepted[inst][val] = b
				}
			case 2:
				recs = append(recs, chosenRecord(inst, val))
				full[key{inst, val}] = true
			case 3:
				recs = append(recs, chosenRefRec(inst, b))
				refs[inst] = append(refs[inst], b)
			case 4:
				recs = append(recs, advanceRec(inst))
			}
		}
		if len(recs) == 0 {
			return
		}
		n := recoverFrom(t, recs)
		base, vals := n.Chosen()
		for i, v := range vals {
			inst, val := base+uint64(i), string(v)
			if full[key{inst, val}] {
				continue
			}
			ok := false
			if ab, acc := accepted[inst][val]; acc {
				for _, rb := range refs[inst] {
					if !ab.Less(rb) {
						ok = true
					}
				}
			}
			if !ok {
				t.Fatalf("recovered %q at instance %d, which the log never chose there", val, inst)
			}
		}
	})
}

// crashLog is a syncing WAL on a disk the test keeps, to cut its power.
func crashLog(e env.Env, d *storage.MemDisk) *storage.FileLog {
	l, err := storage.OpenLog(e, d, "wal", true)
	if err != nil {
		panic(err)
	}
	return l
}

func TestCrashBeforeChosenFlushRelearns(t *testing.T) {
	// A follower loses power right after a commit callback fired, before
	// the chosen record behind it was forced: the callback did not wait
	// for it. Restarted from its disk, the follower recovers a chosen
	// log that agrees with the others and may be shorter; after catching
	// up it holds the same chosen sequence.
	e := sim.New(4)
	e.Run(func() {
		const n, vals = 3, 6
		disks := make([]*storage.MemDisk, n)
		var victim int
		var crashedAt uint64
		crashed := false
		c := newClusterWith(e, transport.NewNetwork(e, n, time.Millisecond, 5), n, 5, nil,
			func(i int, cfg *Config) {
				disks[i] = storage.NewMemDisk()
				cfg.Log = crashLog(e, disks[i])
				cfg.OnStorageFault = func(error) {}
				inner := cfg.OnCommitted
				cfg.OnCommitted = func(inst uint64, val []byte) {
					inner(inst, val)
					if i == victim && !crashed && inst == vals-1 {
						crashed, crashedAt = true, inst
						disks[i].Crash(0)
					}
				}
			})
		c.start()
		lead := c.waitLeader(t, 2*time.Second)
		victim = (lead + 1) % n
		for k := 0; k < vals; k++ {
			c.nodes[lead].Propose([]byte(fmt.Sprintf("v%d", k)))
		}
		for i := 0; i < n; i++ {
			c.waitCommits(t, i, vals, 2*time.Second)
		}
		if !crashed {
			t.Fatal("the victim never committed the last value")
		}
		c.nodes[victim].Stop()
		c.net.Reset(victim)
		restarted, err := NewNode(Config{
			ID: victim, N: n, Env: e,
			Endpoint:        c.net.Endpoint(victim),
			Log:             crashLog(e, disks[victim]),
			HeartbeatEvery:  20 * time.Millisecond,
			ElectionTimeout: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		base, got := restarted.Chosen()
		if base != 0 || uint64(len(got)) > crashedAt {
			t.Fatalf("recovered [%d, +%d): the chosen record of instance %d was forced before the crash", base, len(got), crashedAt)
		}
		for k, v := range got {
			if string(v) != fmt.Sprintf("v%d", k) {
				t.Fatalf("recovered[%d] = %q, want v%d", k, v, k)
			}
		}
		restarted.Start()
		deadline := e.Now() + 2*time.Second
		for restarted.ChosenSeq() < vals && e.Now() < deadline {
			e.Sleep(10 * time.Millisecond)
		}
		st := restarted.ChosenSnapshot()
		if st.Seq != vals {
			t.Fatalf("after restart the victim reached %d chosen instances, want %d", st.Seq, vals)
		}
		for k, v := range st.Vals {
			if string(v) != fmt.Sprintf("v%d", k) {
				t.Fatalf("after catch-up chosen[%d] = %q, want v%d", k, v, k)
			}
		}
		restarted.Stop()
		for i, nd := range c.nodes {
			if i != victim {
				nd.Stop()
			}
		}
	})
}

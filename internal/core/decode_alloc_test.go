//go:build !race

package core

import (
	"io"
	"testing"

	"rex/internal/alloctest"
	"rex/internal/env"
	"rex/internal/sched"
	"rex/internal/storage"
	"rex/internal/trace"
	"rex/internal/transport"
)

// TestDecodeSnapshotCountsBoundedByInput pins the checkpoint decoders'
// allocation on blobs whose counts claim far more items than they carry
// (each once appended up to 2^24 entries before failing).
func TestDecodeSnapshotCountsBoundedByInput(t *testing.T) {
	for i, p := range snapshotCountProbes() {
		got := alloctest.MinBytes(1023, func() {
			if _, err := decodeSnapshot(p); err == nil {
				t.Errorf("probe %d (%x) decoded", i, p)
			}
			decodeSnapshotHeader(p)
		})
		if got >= 1024 {
			t.Errorf("probe %d (%d bytes) allocated %d bytes, want < 1 kB", i, len(p), got)
		}
	}
}

// TestAcceptSnapshotCopyDoesNotCopyBlob pins the receive side of a
// checkpoint push: the blob is judged from its header and stored as
// received, never decoded in full or copied.
func TestAcceptSnapshotCopyDoesNotCopyBlob(t *testing.T) {
	snaps, err := storage.NewFileSnapshots(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewReal()
	log, _ := storage.OpenLog(e, storage.NewMemDisk(), "wal", true)
	r, err := NewReplica(Config{
		ID: 0, N: 1, Env: e,
		Endpoint:  transport.NewNetwork(e, 1, 0, 1).Endpoint(0),
		Log:       log,
		Snapshots: snaps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.mux.Close()
	app := make([]byte, 1<<20)
	blob := func(inst uint64) []byte {
		return (&snapshotBlob{MarkID: inst, Inst: inst, Cut: trace.Cut{1, 2, 3, 4}, App: app}).encode()
	}
	blobs := [][]byte{blob(1), blob(2), blob(3)}
	r.acceptSnapshotCopy(blobs[0], 1) // warm up the store
	for i, b := range blobs[1:] {
		if got := alloctest.Bytes(func() { r.acceptSnapshotCopy(b, 1) }); got >= 64<<10 {
			t.Errorf("accepting a %d-byte checkpoint allocated %d bytes, want < 64 kB", len(b), got)
		}
		if id, _, ok, _ := snaps.Load(); !ok || id != uint64(i+2) {
			t.Fatalf("stored checkpoint %d, want %d", id, i+2)
		}
	}
	if got := alloctest.MinBytes(4<<10-1, func() { r.acceptSnapshotCopy(blobs[0], 1) }); got >= 4<<10 {
		t.Errorf("rejecting a stale checkpoint allocated %d bytes", got)
	}
}

// echoSM answers every query with one fixed response.
type echoSM struct{ resp []byte }

func (s *echoSM) Apply(*Ctx, []byte) []byte         { return s.resp }
func (s *echoSM) Query(*Ctx, []byte) []byte         { return s.resp }
func (s *echoSM) WriteCheckpoint(io.Writer) error   { return nil }
func (s *echoSM) ReadCheckpoint(rd io.Reader) error { return nil }

// TestQueryPathAllocs pins the read path between a reader and the read
// workers: with the query slots reused, a query allocates nothing.
func TestQueryPathAllocs(t *testing.T) {
	e := env.NewReal()
	sm := &echoSM{resp: []byte("v")}
	log, snaps, _ := storage.OpenStores(e, storage.NewMemDisk())
	r, err := NewReplica(Config{
		ID: 0, N: 1, Env: e,
		Endpoint:    transport.NewNetwork(e, 1, 0, 1).Endpoint(0),
		Log:         log,
		Snapshots:   snaps,
		Factory:     func(*sched.Runtime, *TimerHost) StateMachine { return sm },
		ReadWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.mux.Close()
	// Build the incarnation and start only the read workers: no consensus
	// or timer task runs to allocate alongside the measured queries.
	if err := r.rebuild(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.cfg.ReadWorkers; i++ {
		r.spawn("read", r.readWorker)
	}
	defer func() {
		r.queryQ.Close()
		r.group.Wait()
	}()
	q := []byte("get k")
	for i := 0; i < 4; i++ {
		r.Query(q)
	}
	got := testing.AllocsPerRun(200, func() {
		if resp, err := r.Query(q); err != nil || string(resp) != "v" {
			t.Fatalf("query = %q, %v", resp, err)
		}
	})
	if got != 0 {
		t.Errorf("query: %v allocations, want 0", got)
	}
}

// TestReplySlotAllocs pins a write's reply from admission to release: the
// slot comes from the replica's free list and goes back once the
// submitter has read it, so neither a reply channel nor a boxed result is
// allocated. A slot failed by primaryState.fail wakes its submitter with
// ErrStopped and is reused too.
func TestReplySlotAllocs(t *testing.T) {
	e := env.NewReal()
	log, snaps, _ := storage.OpenStores(e, storage.NewMemDisk())
	r, err := NewReplica(Config{
		ID: 0, N: 1, Env: e,
		Endpoint:  transport.NewNetwork(e, 1, 0, 1).Endpoint(0),
		Log:       log,
		Snapshots: snaps,
		Factory:   func(*sched.Runtime, *TimerHost) StateMachine { return &echoSM{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.mux.Close()
	prim := &primaryState{pending: make(map[uint64]*pendingReq), pendingBarriers: make(map[uint64]env.Chan)}
	admit := func(idx uint64) *pendingReq {
		r.mu.Lock()
		defer r.mu.Unlock()
		p := r.replySlot()
		p.client, p.seq, p.at = 1, idx, r.e.Now()
		prim.pending[idx] = p
		prim.outstanding++
		return p
	}
	resp := []byte("ok")
	var idx uint64
	got := testing.AllocsPerRun(200, func() {
		idx++
		p := admit(idx)
		r.mu.Lock()
		p.resp, p.done = resp, true
		r.releaseOneLocked(prim, idx, p)
		r.mu.Unlock()
		if out, _, err := r.awaitReply(p); err != nil || string(out) != "ok" {
			t.Fatalf("reply = %q, %v", out, err)
		}
	})
	if got != 0 {
		t.Errorf("write reply: %v allocations from admission to release, want 0", got)
	}
	p := admit(idx + 1)
	r.mu.Lock()
	prim.fail()
	r.mu.Unlock()
	if _, _, err := r.awaitReply(p); err != ErrStopped {
		t.Fatalf("failed write returned %v, want ErrStopped", err)
	}
	if again := admit(idx + 2); again != p {
		t.Error("a failed slot did not go back to the free list")
	}
}

// TestCtrlBlobReceivedOnce pins the receive side of a checkpoint push over
// a loopback TCPEndpoint pair: a blob larger than the read buffer is read
// into a buffer of its own, which the control queue keeps, so it is
// allocated once; a smaller one, lent from the read buffer, is copied
// once.
func TestCtrlBlobReceivedOnce(t *testing.T) {
	var eps [2]*transport.TCPEndpoint
	for i := range eps {
		addrs := make([]string, 2)
		addrs[i] = "127.0.0.1:0"
		ep, err := transport.ListenTCP(i, addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	eps[0].SetPeer(1, eps[1].Addr().String())
	r := &Replica{ctrlQ: env.NewReal().NewChan(0)}
	eps[1].Attach(r.receiveCtrl)
	// Sizes just under a size class, so "once" is not hidden by rounding.
	for _, size := range []int{40<<10 - 8, 1<<10 - 8} {
		frame := (&ctrlMsg{Kind: ctrlSnapBlob, Blob: make([]byte, size)}).encode()
		receive := func() {
			eps[0].Send(1, frame)
			v, _ := r.ctrlQ.Recv()
			if m := v.(*ctrlMsg); m.Kind != ctrlSnapBlob || len(m.Blob) != size || m.from != 0 {
				t.Fatalf("received kind %x with a %d-byte blob from %d", m.Kind, len(m.Blob), m.from)
			}
		}
		receive() // dial outside the measurement
		limit := uint64(size) + 1<<10
		if got := alloctest.MinBytes(limit, receive); got > limit {
			t.Errorf("receiving a %d-byte blob allocated %d bytes, want it allocated once", size, got)
		}
	}
}

package apps

import (
	"bytes"
	"testing"

	"rex/internal/alloctest"
	"rex/internal/core"
	"rex/internal/env"
)

// checkpointApps are the applications whose checkpoint readers decode
// counts, with the number of single-byte fields before the first count.
var checkpointApps = []struct {
	app    App
	header int
}{
	{LSMKV(), 0},
	{HashDB(), 3},
	{LockServer(), 0},
	{Memcache(), 5},
	{Thumbnail(), 0},
}

// newStateMachine builds a fresh instance of app outside any replica.
func newStateMachine(t testing.TB, app App) *core.NativeHost {
	h, err := core.NewNativeHost(env.NewReal(), 1, app.Timers, 1, app.Factory)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// checkpointCountProbes are short checkpoints for an app with header
// leading fields whose first count announces far more items (2^20, 2^40)
// than the input holds.
func checkpointCountProbes(header int) [][]byte {
	var probes [][]byte
	for _, count := range [][]byte{{0x80, 0x80, 0x40}, {0x80, 0x80, 0x80, 0x80, 0x80, 0x20}} {
		probes = append(probes, append(make([]byte, header), count...))
	}
	return probes
}

// FuzzReadCheckpoint feeds every input to each application's checkpoint
// reader: it must not panic, must allocate within a constant factor of
// the input, and a checkpoint it accepts must write back out to bytes
// that read and write again unchanged.
func FuzzReadCheckpoint(f *testing.F) {
	type instance struct{ sm, again core.StateMachine }
	var insts []instance
	for _, ca := range checkpointApps {
		h := newStateMachine(f, ca.app)
		w := ca.app.NewWorkload(1)
		for _, req := range append(w.Setup()[:min(5, len(w.Setup()))], w.Next(), w.Next()) {
			h.Apply(0, req)
		}
		var buf bytes.Buffer
		if err := h.SM.WriteCheckpoint(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		for _, p := range checkpointCountProbes(ca.header) {
			f.Add(p)
		}
		insts = append(insts, instance{newStateMachine(f, ca.app).SM, newStateMachine(f, ca.app).SM})
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, in := range insts {
			name := checkpointApps[i].app.Name
			var err error
			if got := alloctest.MinBytes(alloctest.MaxDecode(len(data), 128), func() { err = in.sm.ReadCheckpoint(bytes.NewReader(data)) }); got > alloctest.MaxDecode(len(data), 128) {
				t.Fatalf("%s: reading %d bytes allocated %d", name, len(data), got)
			}
			if err != nil {
				continue
			}
			var enc, again bytes.Buffer
			if err := in.sm.WriteCheckpoint(&enc); err != nil {
				t.Fatalf("%s: writing a checkpoint read back: %v", name, err)
			}
			if err := in.again.ReadCheckpoint(bytes.NewReader(enc.Bytes())); err != nil {
				t.Fatalf("%s: re-reading a written checkpoint: %v", name, err)
			}
			if err := in.again.WriteCheckpoint(&again); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
				t.Fatalf("%s: checkpoint does not round-trip (%v): %x", name, err, enc.Bytes())
			}
		}
	})
}

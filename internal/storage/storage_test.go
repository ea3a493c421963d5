package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"rex/internal/env"
)

func testLog(t *testing.T, open func(t *testing.T) Log) {
	t.Helper()
	l := open(t)
	defer l.Close()
	recs := [][]byte{[]byte("a"), []byte("bb"), {}, []byte("dddd")}
	for _, r := range recs {
		if err := l.AppendBatch([][]byte{r}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	got, err := l.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], recs[i])
		}
	}
	if err := l.Rewrite([][]byte{[]byte("only")}); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	got, _ = l.Records()
	if len(got) != 1 || string(got[0]) != "only" {
		t.Fatalf("after rewrite: %q", got)
	}
	if err := l.AppendBatch([][]byte{[]byte("more")}); err != nil {
		t.Fatalf("Append after rewrite: %v", err)
	}
	got, _ = l.Records()
	if len(got) != 2 || string(got[1]) != "more" {
		t.Fatalf("after rewrite+append: %q", got)
	}
}

// memLog opens a syncing log on a fresh in-memory disk.
func memLog(t *testing.T) *FileLog {
	l, err := OpenLog(env.NewReal(), NewMemDisk(), "wal", true)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l
}

func TestFileLog(t *testing.T) {
	t.Run("file", func(t *testing.T) {
		testLog(t, func(t *testing.T) Log {
			l, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), false)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return l
		})
	})
	t.Run("mem", func(t *testing.T) {
		testLog(t, func(t *testing.T) Log { return memLog(t) })
	})
}

func TestFileLogReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([][]byte{[]byte("one")})
	l.AppendBatch([][]byte{[]byte("two")})
	l.Close()
	l2, err := OpenFileLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err := l2.Records()
	if err != nil || len(got) != 2 || string(got[1]) != "two" {
		t.Fatalf("reopen: %v %q", err, got)
	}
	l2.AppendBatch([][]byte{[]byte("three")})
	got, _ = l2.Records()
	if len(got) != 3 {
		t.Fatalf("append after reopen: %q", got)
	}
}

func TestFileLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := OpenFileLog(path, false)
	l.AppendBatch([][]byte{[]byte("good")})
	l.AppendBatch([][]byte{[]byte("alsogood")})
	l.Close()
	// Simulate a crash mid-append: truncate the file inside the last frame.
	info, _ := os.Stat(path)
	os.Truncate(path, info.Size()-3)
	l2, err := OpenFileLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("after torn tail: %q", got)
	}
}

func TestFileLogCorruptTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := OpenFileLog(path, false)
	l.AppendBatch([][]byte{[]byte("good")})
	l.AppendBatch([][]byte{[]byte("soon-corrupt")})
	l.Close()
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)
	l2, _ := OpenFileLog(path, false)
	defer l2.Close()
	got, _ := l2.Records()
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("after corrupt tail: %q", got)
	}
}

func TestSnapshots(t *testing.T) {
	stores := map[string]SnapshotStore{
		"mem": &FileSnapshots{disk: NewMemDisk(), name: "snapshots/snap"},
	}
	fs, err := NewFileSnapshots(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores["file"] = fs
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			if _, _, ok, err := s.Load(); ok || err != nil {
				t.Fatalf("empty Load = %v, %v", ok, err)
			}
			if err := s.Save(3, []byte("v3")); err != nil {
				t.Fatal(err)
			}
			if err := s.Save(7, []byte("v7")); err != nil {
				t.Fatal(err)
			}
			id, data, ok, err := s.Load()
			if err != nil || !ok || id != 7 || string(data) != "v7" {
				t.Fatalf("Load = %d %q %v %v", id, data, ok, err)
			}
		})
	}
}

func TestQuickFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	i := 0
	f := func(recs [][]byte) bool {
		i++
		path := filepath.Join(dir, "wal", "")
		os.Remove(path)
		l, err := OpenFileLog(path, false)
		if err != nil {
			return false
		}
		defer l.Close()
		if err := l.Rewrite(nil); err != nil {
			return false
		}
		for _, r := range recs {
			if err := l.AppendBatch([][]byte{r}); err != nil {
				return false
			}
		}
		got, err := l.Records()
		if err != nil || len(got) != len(recs) {
			return false
		}
		for j := range recs {
			if !bytes.Equal(got[j], recs[j]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// hookDisk wraps a Disk and calls hook before every file fsync ("file",
// name) and directory sync ("dir", dir); an error from the hook fails the
// sync without performing it.
type hookDisk struct {
	Disk
	hook func(kind, name string) error
}

func (d hookDisk) Open(name string, trunc bool) (File, bool, error) {
	f, created, err := d.Disk.Open(name, trunc)
	if err != nil {
		return nil, created, err
	}
	return hookFile{File: f, d: d, name: name}, created, nil
}

func (d hookDisk) SyncDir(dir string) error {
	if err := d.hook("dir", dir); err != nil {
		return err
	}
	return d.Disk.SyncDir(dir)
}

type hookFile struct {
	File
	d    hookDisk
	name string
}

func (f hookFile) Sync() error {
	if err := f.d.hook("file", f.name); err != nil {
		return err
	}
	return f.File.Sync()
}

// eachDisk runs fn over a fresh disk of each kind: the operating system's
// ("file", in a temporary directory) and the in-memory one ("mem").
func eachDisk(t *testing.T, fn func(t *testing.T, d Disk)) {
	t.Run("file", func(t *testing.T) { fn(t, OSDisk(t.TempDir())) })
	t.Run("mem", func(t *testing.T) { fn(t, NewMemDisk()) })
}

// syncEvent is one sync seen by a recording disk, with the state of the
// disk at that moment, which is what the durability argument rests on:
// the temp file's bytes must be on disk before the rename makes them the
// authoritative copy, and the rename must itself be synced (via the
// directory) before Save/Rewrite returns.
type syncEvent struct {
	kind       string // "file" or "dir"
	name       string // file name or directory
	finalSeen  bool   // the final (post-rename) name existed at sync time
	finalBytes []byte // contents of the final name at sync time, if present
	tmpSeen    bool   // the temp file existed at sync time
}

// recordSyncs wraps d so that every sync is recorded into the returned
// events, observing the final and temp names.
func recordSyncs(d Disk, final, tmp string) (Disk, *[]syncEvent) {
	var events []syncEvent
	return hookDisk{Disk: d, hook: func(kind, name string) error {
		ev := syncEvent{kind: kind, name: name}
		if data, err := d.ReadFile(final); err == nil {
			ev.finalSeen = true
			ev.finalBytes = data
		}
		if _, err := d.ReadFile(tmp); err == nil {
			ev.tmpSeen = true
		}
		events = append(events, ev)
		return nil
	}}, &events
}

// TestSnapshotSaveSyncOrdering proves FileSnapshots.Save fsyncs the temp
// file before renaming it into place and fsyncs the directory after: a
// checkpoint whose WAL prefix was compacted away is the only copy of that
// state, so it must not be able to vanish on power loss.
func TestSnapshotSaveSyncOrdering(t *testing.T) {
	eachDisk(t, func(t *testing.T, d Disk) {
		rd, events := recordSyncs(d, "snapshots/snap", "snapshots/snap.tmp")
		_, s, err := OpenStores(env.NewReal(), rd)
		if err != nil {
			t.Fatal(err)
		}
		*events = nil // drop the directory sync of the WAL's creation
		data := []byte("checkpoint payload")
		if err := s.Save(42, data); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if len(*events) != 2 {
			t.Fatalf("got %d sync events, want file then dir: %+v", len(*events), *events)
		}
		fe, de := (*events)[0], (*events)[1]
		if fe.kind != "file" || fe.name != "snapshots/snap.tmp" {
			t.Fatalf("first sync = %+v, want fsync of snap.tmp", fe)
		}
		if fe.finalSeen {
			t.Fatal("snapshot renamed into place before its bytes were fsynced")
		}
		if de.kind != "dir" || de.name != "snapshots" {
			t.Fatalf("second sync = %+v, want fsync of the snapshot directory", de)
		}
		if !de.finalSeen || !bytes.Equal(de.finalBytes[8:], data) {
			t.Fatalf("directory fsynced before the rename was complete: %+v", de)
		}
	})
}

// TestRewriteSyncOrdering proves FileLog.Rewrite fsyncs the compacted log
// before the rename and the directory after, so compaction cannot lose
// the log on power loss.
func TestRewriteSyncOrdering(t *testing.T) {
	eachDisk(t, func(t *testing.T, d Disk) {
		rd, events := recordSyncs(d, "wal", "wal.tmp")
		l, err := OpenLog(env.NewReal(), rd, "wal", false)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		if err := l.AppendBatch([][]byte{[]byte("old-1")}); err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch([][]byte{[]byte("old-2")}); err != nil {
			t.Fatal(err)
		}
		*events = nil // drop the directory sync of the log's creation
		if err := l.Rewrite([][]byte{[]byte("compacted")}); err != nil {
			t.Fatalf("Rewrite: %v", err)
		}
		if len(*events) != 2 {
			t.Fatalf("got %d sync events, want file then dir: %+v", len(*events), *events)
		}
		fe, de := (*events)[0], (*events)[1]
		if fe.kind != "file" || fe.name != "wal.tmp" {
			t.Fatalf("first sync = %+v, want fsync of wal.tmp", fe)
		}
		// At temp-file sync time the rename has not happened: the tmp file
		// is still on disk and the live log still holds the pre-compaction
		// bytes.
		if !fe.tmpSeen {
			t.Fatal("tmp file missing at fsync time")
		}
		if !bytes.Contains(fe.finalBytes, []byte("old-1")) {
			t.Fatalf("live log already replaced before tmp was fsynced: %q", fe.finalBytes)
		}
		if de.kind != "dir" || de.name != "." {
			t.Fatalf("second sync = %+v, want fsync of the log's directory", de)
		}
		if de.tmpSeen {
			t.Fatal("tmp file still present when the directory was fsynced")
		}
		if !bytes.Contains(de.finalBytes, []byte("compacted")) || bytes.Contains(de.finalBytes, []byte("old-1")) {
			t.Fatalf("directory fsynced before the compacted log was renamed in: %q", de.finalBytes)
		}
		recs, err := l.Records()
		if err != nil || len(recs) != 1 || string(recs[0]) != "compacted" {
			t.Fatalf("after rewrite: recs=%q err=%v", recs, err)
		}
	})
}

func TestLogAppendBatch(t *testing.T) {
	logs := map[string]Log{"mem": memLog(t)}
	fl, err := OpenFileLog(filepath.Join(t.TempDir(), "wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	logs["file"] = fl
	for name, l := range logs {
		t.Run(name, func(t *testing.T) {
			defer l.Close()
			if err := l.AppendBatch(nil); err != nil {
				t.Fatalf("empty AppendBatch: %v", err)
			}
			if err := l.AppendBatch([][]byte{[]byte("solo")}); err != nil {
				t.Fatal(err)
			}
			batch := [][]byte{[]byte("b1"), {}, []byte("b3-longer")}
			if err := l.AppendBatch(batch); err != nil {
				t.Fatalf("AppendBatch: %v", err)
			}
			got, err := l.Records()
			if err != nil {
				t.Fatal(err)
			}
			want := [][]byte{[]byte("solo"), []byte("b1"), {}, []byte("b3-longer")}
			if len(got) != len(want) {
				t.Fatalf("got %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Errorf("record %d = %q, want %q", i, got[i], want[i])
				}
			}
		})
	}
}

// openSlowLog opens a syncing log in dir whose every fsync is widened, so
// each append holds the log's mutex long enough for the calls racing it to
// queue behind it.
func openSlowLog(t *testing.T, dir string) *FileLog {
	slow := hookDisk{Disk: OSDisk(dir), hook: func(string, string) error {
		time.Sleep(200 * time.Microsecond)
		return nil
	}}
	l, err := OpenLog(env.NewReal(), slow, "wal", true)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestFileLogCloseDrainsConcurrentAppends: Close waits out the append in
// progress, and the appends serialized behind it either ran before Close or
// fail with ErrClosed after it. Every acknowledged record is on disk.
func TestFileLogCloseDrainsConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l := openSlowLog(t, dir)
	const appenders = 6
	var (
		mu    sync.Mutex
		acked = map[string]bool{}
		wg    sync.WaitGroup
	)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ; i++ {
				rec := []byte{byte(a), byte(i), byte(i >> 8)}
				err := l.AppendBatch([][]byte{rec})
				if err == ErrClosed {
					return
				}
				if err != nil {
					t.Errorf("Append racing Close: %v", err)
					return
				}
				mu.Lock()
				acked[string(rec)] = true
				mu.Unlock()
			}
		}(a)
	}
	time.Sleep(20 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait()
	l, err := OpenFileLog(filepath.Join(dir, "wal"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := map[string]bool{}
	for _, r := range recs {
		onDisk[string(r)] = true
	}
	for r := range acked {
		if !onDisk[r] {
			t.Fatalf("acknowledged record %x missing after Close", r)
		}
	}
	if len(acked) == 0 {
		t.Fatal("no append succeeded before Close")
	}
}

// TestFileLogRewriteDuringAppends: Rewrite and appends are serialized, so
// appends racing it never write to the file being replaced, and every
// record appended after the last Rewrite is in the log.
func TestFileLogRewriteDuringAppends(t *testing.T) {
	l := openSlowLog(t, t.TempDir())
	defer l.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < 4; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := l.AppendBatch([][]byte{{byte(a), byte(i)}}); err != nil {
					t.Errorf("Append racing Rewrite: %v", err)
					return
				}
			}
		}(a)
	}
	for i := 0; i < 5; i++ {
		if err := l.Rewrite([][]byte{[]byte("compacted")}); err != nil {
			t.Fatalf("Rewrite: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := l.Rewrite([][]byte{[]byte("compacted")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := l.AppendBatch([][]byte{{9, byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 6 || string(recs[0]) != "compacted" {
		t.Fatalf("Records after Rewrite: %d records, %v", len(recs), err)
	}
}

// TestFileLogDurableRecordsDuringFsync: DurableRecords, which rexd's
// /healthz reads, returns while an append holds the log's mutex across an
// fsync that has not finished, and counts the batch once it has.
func TestFileLogDurableRecordsDuringFsync(t *testing.T) {
	inSync, release := make(chan struct{}), make(chan struct{})
	var hold bool
	d := hookDisk{Disk: NewMemDisk(), hook: func(kind, _ string) error {
		if kind == "file" && hold {
			inSync <- struct{}{}
			<-release
		}
		return nil
	}}
	l, err := OpenLog(env.NewReal(), d, "wal", true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch([][]byte{[]byte("a")}); err != nil {
		t.Fatal(err)
	}
	hold = true
	appended := make(chan error)
	go func() { appended <- l.AppendBatch([][]byte{[]byte("b"), []byte("c")}) }()
	<-inSync
	frontier := make(chan uint64, 1)
	go func() { frontier <- l.DurableRecords() }()
	select {
	case n := <-frontier:
		if n != 1 {
			t.Errorf("DurableRecords during the fsync = %d, want 1", n)
		}
	case <-time.After(5 * time.Second):
		t.Error("DurableRecords waited behind an fsync in progress")
	}
	close(release)
	if err := <-appended; err != nil {
		t.Fatal(err)
	}
	if n := l.DurableRecords(); n != 3 {
		t.Fatalf("DurableRecords after the fsync = %d, want 3", n)
	}
}

// TestFileLogCreateDirSync proves OpenLog fsyncs the log's directory
// when it creates the log file — before any append can be acknowledged —
// and does not re-sync it when the file already exists. Without the sync,
// the WAL's directory entry can vanish on power loss even though every
// append to it succeeded.
func TestFileLogCreateDirSync(t *testing.T) {
	eachDisk(t, func(t *testing.T, d Disk) {
		var dirSyncs []string
		fileExistedAtSync := false
		hd := hookDisk{Disk: d, hook: func(kind, name string) error {
			if kind == "dir" {
				dirSyncs = append(dirSyncs, name)
				if _, err := d.ReadFile("wal"); err == nil {
					fileExistedAtSync = true
				}
			}
			return nil
		}}
		l, err := OpenLog(env.NewReal(), hd, "wal", true)
		if err != nil {
			t.Fatal(err)
		}
		if len(dirSyncs) != 1 || dirSyncs[0] != "." {
			t.Fatalf("dir syncs on create = %v, want exactly the log's directory", dirSyncs)
		}
		if !fileExistedAtSync {
			t.Fatal("directory fsynced before the log file existed")
		}
		if err := l.AppendBatch([][]byte{[]byte("rec")}); err != nil {
			t.Fatal(err)
		}
		l.Close()
		dirSyncs = nil
		l2, err := OpenLog(env.NewReal(), hd, "wal", true)
		if err != nil {
			t.Fatal(err)
		}
		defer l2.Close()
		if len(dirSyncs) != 0 {
			t.Fatalf("dir syncs on reopen of existing log = %v, want none", dirSyncs)
		}
	})
}

// TestFileLogQuarantine proves the crash-recovery bugfix end to end: a torn
// tail is moved to the .quarantine sidecar, the log is truncated to the
// intact prefix, and appends after reopen land behind that prefix — so they
// are visible after yet another reopen instead of hiding behind garbage.
func TestFileLogQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal")
	l, err := OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	l.AppendBatch([][]byte{[]byte("keep-1")})
	l.AppendBatch([][]byte{[]byte("keep-2")})
	l.Close()
	// Crash mid-append: half a frame of garbage lands at the tail.
	torn := []byte{9, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r'}
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write(torn)
	f.Close()

	l2, err := OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	q, err := os.ReadFile(path + ".quarantine")
	if err != nil {
		t.Fatalf("quarantine sidecar missing: %v", err)
	}
	if !bytes.Equal(q, torn) {
		t.Fatalf("quarantine = %x, want the torn bytes %x", q, torn)
	}
	if err := l2.AppendBatch([][]byte{[]byte("post-crash")}); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	l3, err := OpenFileLog(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	got, err := l3.Records()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"keep-1", "keep-2", "post-crash"}
	if len(got) != len(want) {
		t.Fatalf("after quarantine+append+reopen: %q, want %q", got, want)
	}
	for i := range want {
		if string(got[i]) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestFileLogCrashRecoveryProperty drives random append/crash schedules
// over both disks: every record acknowledged before the crash must be
// recovered, nothing at or beyond the tear may be, and records appended
// after reopen must be durable across a further reopen. Appends carry one
// record or several, with a fraction issued concurrently. On the in-memory
// disk the crash can also be a power loss: after appends acknowledged
// without fsync, or between an append's write and its fsync, and with the
// unsynced tail torn anywhere.
func TestFileLogCrashRecoveryProperty(t *testing.T) {
	eachDisk(t, func(t *testing.T, base Disk) {
		rng := rand.New(rand.NewSource(0x5eed))
		mem, _ := base.(*MemDisk)
		for iter := 0; iter < 30; iter++ {
			var d Disk = OSDisk(t.TempDir())
			var crashNextSync func() // set: the next fsync crashes the disk and fails
			if mem != nil {
				mem = NewMemDisk()
				d = hookDisk{Disk: mem, hook: func(string, string) error {
					if crash := crashNextSync; crash != nil {
						crashNextSync = nil
						crash()
						return errors.New("power lost")
					}
					return nil
				}}
			}
			open := func(syncEach bool) *FileLog {
				l, err := OpenLog(env.NewReal(), d, "wal", syncEach)
				if err != nil {
					t.Fatalf("iter %d: open: %v", iter, err)
				}
				return l
			}
			l := open(true)
			var acked [][]byte
			next := 0
			mkRec := func() []byte {
				rec := make([]byte, rng.Intn(64))
				rng.Read(rec)
				rec = append(rec, byte(next), byte(next>>8))
				next++
				return rec
			}
			for _, phase := range []int{0, 1} {
				ops := 1 + rng.Intn(8)
				for op := 0; op < ops; op++ {
					switch rng.Intn(3) {
					case 0: // single append
						rec := mkRec()
						if err := l.AppendBatch([][]byte{rec}); err != nil {
							t.Fatalf("iter %d: Append: %v", iter, err)
						}
						acked = append(acked, rec)
					case 1: // batch append
						batch := make([][]byte, 1+rng.Intn(5))
						for i := range batch {
							batch[i] = mkRec()
						}
						if err := l.AppendBatch(batch); err != nil {
							t.Fatalf("iter %d: AppendBatch: %v", iter, err)
						}
						acked = append(acked, batch...)
					case 2: // concurrent appends (acked set joined after)
						n := 2 + rng.Intn(4)
						recs := make([][]byte, n)
						for i := range recs {
							recs[i] = mkRec()
						}
						var wg sync.WaitGroup
						for _, rec := range recs {
							wg.Add(1)
							go func(rec []byte) {
								defer wg.Done()
								if err := l.AppendBatch([][]byte{rec}); err != nil {
									t.Errorf("iter %d: concurrent Append: %v", iter, err)
								}
							}(rec)
						}
						wg.Wait()
						// Concurrent appends land in an arbitrary relative
						// order; compare as a set below.
						acked = append(acked, recs...)
					}
				}
				if phase == 1 {
					break
				}
				kinds := 3
				if mem != nil {
					kinds = 5
				}
				switch rng.Intn(kinds) {
				case 0: // torn frame: garbage header + partial payload
					l.Close()
					g := make([]byte, 1+rng.Intn(20))
					rng.Read(g)
					if len(g) >= 4 {
						g[0], g[1], g[2], g[3] = 0xff, 0x7f, 0, 0 // length far past EOF
					}
					f, _, _ := d.Open("wal", false)
					f.Write(g)
					f.Close()
				case 1: // bit flip inside the tail of the file
					l.Close()
					data, _ := d.ReadFile("wal")
					if len(data) > 0 {
						data[len(data)-1-rng.Intn(min(8, len(data)))] ^= 1 << rng.Intn(8)
						writeFile(d, "wal", false, data)
						// The flipped frame (and anything behind it) is lost.
						// The surviving intact prefix becomes the expectation —
						// but every survivor must itself have been acked, so
						// corruption can only shrink the set, never invent.
						kept := parseFrames(data[:scanFrames(data, nil)])
						count := make(map[string]int, len(acked))
						for _, r := range acked {
							count[string(r)]++
						}
						for _, r := range kept {
							if count[string(r)] == 0 {
								t.Fatalf("iter %d: intact prefix holds never-acked record %x", iter, r)
							}
							count[string(r)]--
						}
						acked = kept
					}
				case 2: // clean crash: Close, no tear
					l.Close()
				case 3: // power loss after appends acknowledged without fsync
					l.Close()
					l = open(false)
					unsynced := make([][]byte, 1+rng.Intn(4))
					tail := 0
					for i := range unsynced {
						unsynced[i] = mkRec()
						tail += 8 + len(unsynced[i])
						if err := l.AppendBatch([][]byte{unsynced[i]}); err != nil {
							t.Fatalf("iter %d: unsynced Append: %v", iter, err)
						}
					}
					torn := rng.Intn(tail + 1)
					mem.Crash(torn)
					// Whole frames within the torn bytes survive, in order;
					// the rest of the unsynced tail is gone.
					for _, rec := range unsynced {
						if torn < 8+len(rec) {
							break
						}
						torn -= 8 + len(rec)
						acked = append(acked, rec)
					}
				case 4: // power loss between an append's write and its fsync
					rec := mkRec()
					crashNextSync = func() { mem.Crash(rng.Intn(8 + len(rec))) }
					if err := l.AppendBatch([][]byte{rec}); err == nil {
						t.Fatalf("iter %d: append acknowledged across a power loss", iter)
					}
				}
				l = open(true)
				got, err := l.Records()
				if err != nil {
					t.Fatalf("iter %d: Records after crash: %v", iter, err)
				}
				assertSameRecords(t, iter, "post-crash", got, acked)
			}
			l.Close()
			l2 := open(true)
			got, err := l2.Records()
			if err != nil {
				t.Fatalf("iter %d: final Records: %v", iter, err)
			}
			assertSameRecords(t, iter, "final", got, acked)
			l2.Close()
		}
	})
}

// TestMemDiskCrash: a crash keeps only what was synced — file bytes up to
// the last fsync, directory entries up to the last directory sync — plus
// the torn prefix of each unsynced tail, and fails every handle opened
// before it.
func TestMemDiskCrash(t *testing.T) {
	d := NewMemDisk()
	f, created, _ := d.Open("a", false)
	if !created {
		t.Fatal("first open did not create the file")
	}
	f.Write([]byte("synced"))
	f.Sync()
	d.SyncDir(".")
	f.Write([]byte("-unsynced"))
	g, _, _ := d.Open("b", false) // never made durable by a directory sync
	g.Write([]byte("b"))
	g.Sync()
	d.Crash(3)
	if got, _ := d.ReadFile("a"); string(got) != "synced-un" {
		t.Fatalf("after crash a = %q, want the synced bytes and 3 torn ones", got)
	}
	if _, err := d.ReadFile("b"); err == nil {
		t.Fatal("a file whose directory entry was never synced survived the crash")
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, errStale) {
		t.Fatalf("write through a handle from before the crash = %v, want errStale", err)
	}
	d.Rename("a", "c") // not synced: the old entry comes back
	d.Crash(0)
	if got, _ := d.ReadFile("a"); string(got) != "synced-un" {
		t.Fatalf("after an unsynced rename and a crash a = %q, want %q", got, "synced-un")
	}
	if _, err := d.ReadFile("c"); err == nil {
		t.Fatal("an unsynced rename survived the crash")
	}
}

// TestMemDiskFailWrites: armed writes fail with ErrInjected and write
// nothing; the log fails crash-stop on the first one, and a log reopened
// on the disk once it is disarmed holds exactly the acknowledged records
// and appends again.
func TestMemDiskFailWrites(t *testing.T) {
	d := NewMemDisk()
	l, err := OpenLog(env.NewReal(), d, "wal", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([][]byte{[]byte("ok")}); err != nil {
		t.Fatal(err)
	}
	d.FailWrites("wal", 2)
	for i := 0; i < 2; i++ {
		if err := l.AppendBatch([][]byte{[]byte("lost"), []byte("too")}); !errors.Is(err, ErrInjected) {
			t.Fatalf("armed append %d = %v, want ErrInjected", i, err)
		}
	}
	d.FailWrites("wal", 0)
	if err := l.AppendBatch([][]byte{[]byte("after")}); !errors.Is(err, ErrInjected) {
		t.Fatalf("append after a failed write = %v, want the sticky ErrInjected", err)
	}
	d.Crash(0) // the process dies; its handle goes with it
	l, err = OpenLog(env.NewReal(), d, "wal", true)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendBatch([][]byte{[]byte("again")}); err != nil {
		t.Fatalf("append after disarm and reopen: %v", err)
	}
	recs, err := l.Records()
	if err != nil || len(recs) != 2 || string(recs[0]) != "ok" || string(recs[1]) != "again" {
		t.Fatalf("records = %q, %v; want [ok again]", recs, err)
	}
}

// parseFrames decodes the records in a fully-valid frame sequence.
func parseFrames(data []byte) [][]byte {
	var recs [][]byte
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		recs = append(recs, append([]byte(nil), data[off+8:off+8+n]...))
		off += 8 + n
	}
	return recs
}

// assertSameRecords compares got and want as multisets (concurrent appends
// have no deterministic relative order) and fails the test on mismatch.
func assertSameRecords(t *testing.T, iter int, stage string, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("iter %d %s: %d records recovered, want %d", iter, stage, len(got), len(want))
	}
	count := make(map[string]int, len(want))
	for _, r := range want {
		count[string(r)]++
	}
	for _, r := range got {
		if count[string(r)] == 0 {
			t.Fatalf("iter %d %s: recovered unexpected record %x", iter, stage, r)
		}
		count[string(r)]--
	}
}

// Package storage provides the durable state Rex replicas need: an
// append-only record log for the consensus engine (acceptor promises,
// accepted values, chosen values) and a snapshot store for checkpoints
// (§3.3). There is one implementation of each, FileLog and FileSnapshots,
// written over a small Disk interface with two implementations: OSDisk,
// the operating system's file system that cmd/rexd uses, and MemDisk, an
// in-memory disk that the simulator and tests use and that can crash,
// dropping what was never synced, or fail writes.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"

	"rex/internal/env"
	"rex/internal/obs"
)

// Log is an append-only record log.
type Log interface {
	// AppendBatch adds recs as one atomic unit of work: either every
	// record is durable when it returns or none is acknowledged. A batch
	// costs at most one fsync regardless of length.
	AppendBatch(recs [][]byte) error
	// Records returns all records in append order.
	Records() ([][]byte, error)
	// Rewrite atomically replaces the log's contents (compaction).
	Rewrite(recs [][]byte) error
	// Close releases resources.
	Close() error
}

// SnapshotStore persists checkpoint snapshots.
type SnapshotStore interface {
	// Save stores a snapshot for the given checkpoint id, replacing any
	// previous snapshot.
	Save(id uint64, data []byte) error
	// Load returns the most recent snapshot, if any.
	Load() (id uint64, data []byte, ok bool, err error)
}

// LogMetrics holds the WAL's observability series. All fields are always
// allocated (OpenFileLog substitutes a private set when none is attached)
// so the commit path never nil-checks.
type LogMetrics struct {
	Appends *obs.Counter // records acknowledged durable
	Fsyncs  *obs.Counter // fsyncs issued, at most one per AppendBatch

	// AppendWait is the caller-observed AppendBatch latency: call to
	// durable acknowledgement, including the wait for the log's mutex.
	AppendWait *obs.Histogram
}

// NewLogMetrics allocates all series.
func NewLogMetrics() *LogMetrics {
	return &LogMetrics{
		Appends:    obs.NewCounter(),
		Fsyncs:     obs.NewCounter(),
		AppendWait: obs.NewHistogram(),
	}
}

// Register exports the series into reg under rex_wal_* names.
func (m *LogMetrics) Register(reg *obs.Registry) {
	reg.RegisterCounter("rex_wal_appends_total", m.Appends)
	reg.RegisterCounter("rex_wal_fsyncs_total", m.Fsyncs)
	reg.RegisterHistogram("rex_wal_append_wait_seconds", m.AppendWait)
}

// FileLog is the Log over a Disk. Records are framed as
// [len uint32][crc uint32][payload]; recovery stops at the first torn or
// corrupt frame, which is the expected state after a crash mid-append.
//
// The log has one writer: a replica's Paxos event loop, which turns each
// inbox drain into one AppendBatch. AppendBatch frames its records into a
// reused buffer and retires them with one write and (when syncEach is
// set) one fsync, all under the log's mutex, so calls from several
// goroutines are serialized, not coalesced. The mutex is the log's env.Env
// mutex, so the simulator can run it.
type FileLog struct {
	e    env.Env
	mu   env.Mutex // held across every call's I/O
	disk Disk
	name string
	f    File
	sync bool
	obs  *LogMetrics

	dur   atomic.Uint64 // records durable (written, and fsynced when sync)
	buf   []byte        // frame buffer, reused under mu
	ioErr error         // sticky write or fsync failure; fails all later calls
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("storage: log closed")

// appendFrame appends rec's frame to buf.
func appendFrame(buf, rec []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(rec))
	return append(buf, rec...)
}

// scanFrames calls fn, when set, on each intact record of data in order
// and returns the byte length of the intact prefix (the recovery point
// after a crash).
func scanFrames(data []byte, fn func(rec []byte)) int {
	off := 0
	for off+8 <= len(data) {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if off+8+n > len(data) {
			break // torn tail
		}
		if crc32.ChecksumIEEE(data[off+8:off+8+n]) != crc {
			break // corrupt tail
		}
		if fn != nil {
			fn(data[off+8 : off+8+n])
		}
		off += 8 + n
	}
	return off
}

// OpenFileLog opens (creating if needed) the log file at path on the
// operating system's disk, under the real environment. If syncEach is
// true, every AppendBatch fsyncs before acknowledging.
func OpenFileLog(path string, syncEach bool) (*FileLog, error) {
	return OpenLog(env.NewReal(), OSDisk(filepath.Dir(path)), filepath.Base(path), syncEach)
}

// OpenLog opens (creating if needed) the log file name on d, blocking
// through e. If syncEach is true, every AppendBatch fsyncs before
// acknowledging.
//
// Recovery discipline: the file is scanned on open and any torn or corrupt
// tail is truncated away (the bytes are preserved in a ".quarantine"
// sidecar for debugging) so that records appended after a crash land
// immediately behind the last intact record instead of behind garbage that
// Records would stop at. When the log file is newly created, its
// directory is fsynced so the empty WAL itself survives power loss.
func OpenLog(e env.Env, d Disk, name string, syncEach bool) (*FileLog, error) {
	f, created, err := d.Open(name, false)
	if err != nil {
		return nil, err
	}
	l := &FileLog{e: e, mu: e.NewMutex(), disk: d, name: name, f: f, sync: syncEach, obs: NewLogMetrics()}
	if err := l.recover(created); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover makes a freshly opened log file safe to append to.
func (l *FileLog) recover(created bool) error {
	if created {
		// A file that exists only in the page cache's view of its
		// directory can vanish on power loss even though every append to
		// it "succeeded" — make the directory entry durable first.
		return l.disk.SyncDir(path.Dir(l.name))
	}
	data, err := l.disk.ReadFile(l.name)
	if err != nil {
		return err
	}
	valid := scanFrames(data, nil)
	if valid == len(data) {
		return nil
	}
	// Torn or corrupt tail from a crash mid-append: quarantine the garbage
	// for debugging, then truncate so future appends extend the intact
	// prefix instead of hiding behind it.
	if err := writeFile(l.disk, l.name+".quarantine", false, data[valid:]); err != nil {
		return err
	}
	if err := l.f.Truncate(int64(valid)); err != nil {
		return err
	}
	return l.f.Sync()
}

// SetMetrics attaches the WAL's observability series. Call before the log
// is shared between goroutines (metrics are swapped, not merged).
func (l *FileLog) SetMetrics(m *LogMetrics) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m != nil {
		l.obs = m
	}
}

// DurableRecords returns how many appended records are durable so far —
// the WAL's durable frontier, exposed on rexd's /healthz. It reads an
// atomic, so it never waits behind an append's fsync.
func (l *FileLog) DurableRecords() uint64 { return l.dur.Load() }

// usableLocked returns why the log cannot be used, if it cannot: it is
// closed, or an earlier write or fsync failed. Callers must hold l.mu.
func (l *FileLog) usableLocked() error {
	if l.f == nil {
		return ErrClosed
	}
	return l.ioErr
}

// AppendBatch implements Log with one write and, when the log syncs, one
// fsync. A failure is sticky: the batch and every later call fail with it.
func (l *FileLog) AppendBatch(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	start := l.e.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	l.buf = l.buf[:0]
	for _, rec := range recs {
		l.buf = appendFrame(l.buf, rec)
	}
	_, err := l.f.Write(l.buf)
	if err == nil && l.sync {
		l.obs.Fsyncs.Inc()
		err = l.f.Sync()
	}
	if err != nil {
		l.ioErr = err
		return err
	}
	l.dur.Add(uint64(len(recs)))
	l.obs.Appends.Add(uint64(len(recs)))
	l.obs.AppendWait.Observe(l.e.Now() - start)
	return nil
}

// Records implements Log.
func (l *FileLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return nil, err
	}
	data, err := l.disk.ReadFile(l.name)
	if err != nil {
		return nil, err
	}
	var recs [][]byte
	scanFrames(data, func(rec []byte) { recs = append(recs, append([]byte(nil), rec...)) })
	return recs, nil
}

// Rewrite implements Log: writes a fresh log beside the old one and renames
// it into place, so compaction is crash-atomic. It holds l.mu throughout,
// so no append writes to the file being replaced.
func (l *FileLog) Rewrite(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	tmp := l.name + ".tmp"
	nf, _, err := l.disk.Open(tmp, true)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		l.buf = appendFrame(l.buf[:0], rec)
		if _, err = nf.Write(l.buf); err != nil {
			break
		}
	}
	if err == nil {
		err = nf.Sync()
	}
	if cerr := nf.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := l.disk.Rename(tmp, l.name); err != nil {
		return err
	}
	// The rename itself must survive power loss: fsync the directory so the
	// new directory entry is durable before the compacted records are
	// trusted to have replaced the old log.
	if err := l.disk.SyncDir(path.Dir(l.name)); err != nil {
		return err
	}
	l.f.Close()
	l.f, _, err = l.disk.Open(l.name, false)
	return err
}

// Close implements Log. The log buffers nothing, so every acknowledged
// record is already written; later calls fail with ErrClosed. Close
// reports a sticky I/O error.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	if err == nil {
		err = l.ioErr
	}
	return err
}

// FileSnapshots is the SnapshotStore over a Disk: the latest checkpoint
// in one file, its id in the first eight bytes, replaced by rename.
type FileSnapshots struct {
	mu   sync.Mutex // serializes Saves, which share the temp file
	disk Disk
	name string
}

// NewFileSnapshots returns a snapshot store in the operating system's
// directory dir.
func NewFileSnapshots(dir string) (*FileSnapshots, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileSnapshots{disk: OSDisk(dir), name: "snap"}, nil
}

// OpenStores opens a replica's durable state on d, the layout of a rexd
// data directory: the WAL in "wal", fsynced on every append, and the
// latest snapshot in "snapshots/snap".
func OpenStores(e env.Env, d Disk) (*FileLog, *FileSnapshots, error) {
	l, err := OpenLog(e, d, "wal", true)
	if err != nil {
		return nil, nil, err
	}
	return l, &FileSnapshots{disk: d, name: "snapshots/snap"}, nil
}

// Save implements SnapshotStore. The snapshot bytes are fsynced to a temp
// file before the rename and the directory is fsynced after it, so a
// checkpoint reported saved cannot vanish (or appear truncated) on power
// loss — a snapshot whose WAL prefix has been compacted away is the only
// copy of that state.
func (s *FileSnapshots) Save(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.name + ".tmp"
	if err := writeFile(s.disk, tmp, true, binary.LittleEndian.AppendUint64(nil, id), data); err != nil {
		return err
	}
	if err := s.disk.Rename(tmp, s.name); err != nil {
		return err
	}
	return s.disk.SyncDir(path.Dir(s.name))
}

// Load implements SnapshotStore.
func (s *FileSnapshots) Load() (uint64, []byte, bool, error) {
	data, err := s.disk.ReadFile(s.name)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return 0, nil, false, nil
	case err != nil:
		return 0, nil, false, err
	case len(data) < 8:
		return 0, nil, false, fmt.Errorf("storage: snapshot %s is %d bytes, shorter than its header", s.name, len(data))
	}
	return binary.LittleEndian.Uint64(data), data[8:], true, nil
}

// Package storage provides the durable state Rex replicas need: an
// append-only record log for the consensus engine (acceptor promises,
// accepted values, chosen values) and a snapshot store for checkpoints
// (§3.3). Both have an in-memory implementation for simulation and tests
// and a file-backed implementation for cmd/rexd.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"rex/internal/obs"
)

// Log is an append-only record log. Append must be durable before it
// returns (to the level the implementation promises).
type Log interface {
	// Append adds one record.
	Append(rec []byte) error
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

// MemLog is an in-memory Log.
type MemLog struct {
	mu   sync.Mutex
	recs [][]byte
}

// NewMemLog returns an empty in-memory log.
func NewMemLog() *MemLog { return &MemLog{} }

// Append implements Log.
func (l *MemLog) Append(rec []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, append([]byte(nil), rec...))
	return nil
}

// AppendBatch implements Log.
func (l *MemLog) AppendBatch(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rec := range recs {
		l.recs = append(l.recs, append([]byte(nil), rec...))
	}
	return nil
}

// Records implements Log.
func (l *MemLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([][]byte, len(l.recs))
	copy(out, l.recs)
	return out, nil
}

// Rewrite implements Log.
func (l *MemLog) Rewrite(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
	for _, r := range recs {
		l.recs = append(l.recs, append([]byte(nil), r...))
	}
	return nil
}

// Close implements Log.
func (l *MemLog) Close() error { return nil }

// MemSnapshots is an in-memory SnapshotStore.
type MemSnapshots struct {
	mu   sync.Mutex
	id   uint64
	data []byte
	has  bool
}

// NewMemSnapshots returns an empty in-memory snapshot store.
func NewMemSnapshots() *MemSnapshots { return &MemSnapshots{} }

// Save implements SnapshotStore.
func (s *MemSnapshots) Save(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.id = id
	s.data = append([]byte(nil), data...)
	s.has = true
	return nil
}

// Load implements SnapshotStore.
func (s *MemSnapshots) Load() (uint64, []byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.has {
		return 0, nil, false, nil
	}
	return s.id, append([]byte(nil), s.data...), true, nil
}

// LogMetrics holds the WAL's observability series. All fields are always
// allocated (OpenFileLog substitutes a private set when none is attached)
// so the commit path never nil-checks.
type LogMetrics struct {
	Appends *obs.Counter // records acknowledged durable
	Batches *obs.Counter // flushes (one buffered write each)
	Fsyncs  *obs.Counter // fsyncs issued by the flushes

	// BatchRecords is the group-commit batch-size distribution: records
	// coalesced per flush. Fsyncs/Appends well below 1 with BatchRecords
	// means group commit is amortizing the disk.
	BatchRecords *obs.SizeHistogram
	// AppendWait is the caller-observed Append latency: enqueue to
	// durable acknowledgement, including the wait for the shared fsync.
	AppendWait *obs.Histogram
}

// NewLogMetrics allocates all series.
func NewLogMetrics() *LogMetrics {
	return &LogMetrics{
		Appends:      obs.NewCounter(),
		Batches:      obs.NewCounter(),
		Fsyncs:       obs.NewCounter(),
		BatchRecords: obs.NewSizeHistogram(),
		AppendWait:   obs.NewHistogram(),
	}
}

// Register exports the series into reg under rex_wal_* names.
func (m *LogMetrics) Register(reg *obs.Registry) {
	reg.RegisterCounter("rex_wal_appends_total", m.Appends)
	reg.RegisterCounter("rex_wal_batches_total", m.Batches)
	reg.RegisterCounter("rex_wal_fsyncs_total", m.Fsyncs)
	reg.RegisterSizeHistogram("rex_wal_batch_records", m.BatchRecords)
	reg.RegisterHistogram("rex_wal_append_wait_seconds", m.AppendWait)
}

// FileLog is a file-backed Log. Records are framed as
// [len uint32][crc uint32][payload]; recovery stops at the first torn or
// corrupt frame, which is the expected state after a crash mid-append.
//
// Appends are group-committed by the appenders themselves: a caller that
// finds no flush in progress takes everything queued, writes it with one
// write and (when syncEach is set) one fsync, with l.mu released for the
// I/O. Callers that arrive meanwhile queue their records and wait; when
// the flush ends, one of them flushes everything that queued up behind
// it. N concurrent appends therefore cost about one disk round-trip, not
// N, a lone appender pays no goroutine hand-off, and each Append still
// returns only after its record is durable.
type FileLog struct {
	mu   sync.Mutex
	done *sync.Cond // a flush ended: durable frontier advanced, or ioErr set
	path string
	f    *os.File
	sync bool
	obs  *LogMetrics

	queue    [][]byte // records accepted but not yet written
	enq      uint64   // records ever enqueued
	dur      uint64   // records durable (written, and fsynced when sync)
	flushing bool     // a caller is writing a batch with l.mu released
	draining bool     // a drainLocked caller waits for the file: start no flush
	buf      []byte   // frame buffer, owned by the flushing caller
	ioErr    error    // sticky flush failure; fails all later calls
	closing  bool     // Close in progress: reject new appends
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("storage: log closed")

// fileSync and dirSync are indirections over fsync so durability-ordering
// tests can observe that a temp file is synced before it is renamed into
// place and that the containing directory is synced after. Production code
// never swaps them.
var (
	fileSync = func(f *os.File) error { return f.Sync() }
	dirSync  = func(dir string) error {
		d, err := os.Open(dir)
		if err != nil {
			return err
		}
		defer d.Close()
		return d.Sync()
	}
)

// validPrefixLen walks data's frames and returns the byte length of the
// longest prefix of intact records (the recovery point after a crash).
func validPrefixLen(data []byte) int {
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
		off += 8 + n
	}
	return off
}

// OpenFileLog opens (creating if needed) a file log. If syncEach is true,
// every Append (or AppendBatch) fsyncs before acknowledging.
//
// Recovery discipline: the file is scanned on open and any torn or corrupt
// tail is truncated away (the bytes are preserved in a ".quarantine"
// sidecar for debugging) so that records appended after a crash land
// immediately behind the last intact record instead of behind garbage that
// Records would stop at. When the log file is newly created, the parent
// directory is fsynced so the empty WAL itself survives power loss.
func OpenFileLog(path string, syncEach bool) (*FileLog, error) {
	_, statErr := os.Stat(path)
	created := os.IsNotExist(statErr)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if created {
		// A file that exists only in the page cache's view of its parent
		// directory can vanish on power loss even though every Append to
		// it "succeeded" — make the directory entry durable first.
		if err := dirSync(filepath.Dir(path)); err != nil {
			f.Close()
			return nil, err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, err
	}
	valid := validPrefixLen(data)
	if valid < len(data) {
		// Torn or corrupt tail from a crash mid-append: quarantine the
		// garbage for debugging, then truncate so future appends extend
		// the intact prefix instead of hiding behind it.
		if err := os.WriteFile(path+".quarantine", data[valid:], 0o644); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return nil, err
		}
		if err := fileSync(f); err != nil {
			f.Close()
			return nil, err
		}
	}
	if _, err := f.Seek(int64(valid), io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	l := &FileLog{path: path, f: f, sync: syncEach, obs: NewLogMetrics()}
	l.done = sync.NewCond(&l.mu)
	return l, nil
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
// the WAL's durable frontier, exposed on rexd's /healthz.
func (l *FileLog) DurableRecords() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dur
}

// Append implements Log: the call returns once the flush covering the
// record is durable.
func (l *FileLog) Append(rec []byte) error {
	return l.AppendBatch([][]byte{rec})
}

// AppendBatch implements Log.
func (l *FileLog) AppendBatch(recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	start := time.Now()
	l.mu.Lock()
	if l.f == nil || l.closing {
		l.mu.Unlock()
		return ErrClosed
	}
	if l.ioErr != nil {
		err := l.ioErr
		l.mu.Unlock()
		return err
	}
	l.queue = append(l.queue, recs...)
	l.enq += uint64(len(recs))
	err := l.flushLocked(l.enq)
	m := l.obs
	l.mu.Unlock()
	if err != nil {
		return err
	}
	m.Appends.Add(uint64(len(recs)))
	m.AppendWait.Observe(time.Since(start))
	return nil
}

// flushLocked returns once the first upto records ever enqueued are
// durable, or the log has failed. Until then it waits out the flush (or
// drain) in progress, or flushes the queue itself. Callers must hold l.mu.
func (l *FileLog) flushLocked(upto uint64) error {
	for l.dur < upto && l.ioErr == nil {
		if l.flushing || l.draining {
			l.done.Wait()
		} else {
			l.flushQueueLocked()
		}
	}
	return l.ioErr
}

// drainLocked returns once every record enqueued before the call is
// durable and no flush is in progress, so the caller, holding l.mu, has
// the file to itself. Records queued meanwhile stay queued for the next
// flush. Callers must hold l.mu.
func (l *FileLog) drainLocked() error {
	err := l.flushLocked(l.enq)
	l.draining = true // appenders stand aside until the caller is done
	for l.flushing {
		l.done.Wait()
	}
	l.draining = false
	l.done.Broadcast() // they wait for l.mu, which the caller holds
	if err == nil {
		err = l.ioErr
	}
	return err
}

// flushQueueLocked frames everything queued into one buffer and retires it
// with a single write (+ fsync when the log is in sync mode), with l.mu
// released for the I/O. Callers must hold l.mu, with no flush in progress
// and a non-empty queue.
func (l *FileLog) flushQueueLocked() {
	batch := l.queue
	l.queue = nil
	l.flushing = true
	f, m, buf := l.f, l.obs, l.buf[:0]
	l.mu.Unlock()

	for _, rec := range batch {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
		buf = append(buf, hdr[:]...)
		buf = append(buf, rec...)
	}
	_, err := f.Write(buf)
	if err == nil && l.sync {
		m.Fsyncs.Inc()
		err = fileSync(f)
	}
	m.Batches.Inc()
	m.BatchRecords.Observe(uint64(len(batch)))

	l.mu.Lock()
	l.buf = buf
	l.flushing = false
	if err != nil {
		l.ioErr = err
	} else {
		l.dur += uint64(len(batch))
	}
	l.done.Broadcast()
}

// Records implements Log. It flushes the queue first so every
// acknowledged record is visible.
func (l *FileLog) Records() ([][]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil, ErrClosed
	}
	if err := l.drainLocked(); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(l.path)
	if err != nil {
		return nil, err
	}
	var recs [][]byte
	for off := 0; off+8 <= len(data); {
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if off+8+n > len(data) {
			break // torn tail
		}
		body := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(body) != crc {
			break // corrupt tail
		}
		recs = append(recs, append([]byte(nil), body...))
		off += 8 + n
	}
	return recs, nil
}

// Rewrite implements Log: writes a fresh log beside the old one and renames
// it into place, so compaction is crash-atomic. The queue is flushed
// first; no flush can be in progress for the duration (the lock is held
// and every enqueued record is durable), so swapping the file handle is
// safe.
func (l *FileLog) Rewrite(recs [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return ErrClosed
	}
	if err := l.drainLocked(); err != nil {
		return err
	}
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(rec)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(rec))
		if _, err := nf.Write(hdr[:]); err != nil {
			nf.Close()
			return err
		}
		if _, err := nf.Write(rec); err != nil {
			nf.Close()
			return err
		}
	}
	if err := fileSync(nf); err != nil {
		nf.Close()
		return err
	}
	if err := nf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return err
	}
	// The rename itself must survive power loss: fsync the directory so the
	// new directory entry is durable before the compacted records are
	// trusted to have replaced the old log.
	if err := dirSync(filepath.Dir(l.path)); err != nil {
		return err
	}
	l.f.Close()
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		l.f = nil
		return err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		l.f = nil
		return err
	}
	l.f = f
	return nil
}

// Close implements Log. Records already queued are flushed durably before
// the file is closed; new appends are rejected with ErrClosed.
func (l *FileLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	l.closing = true
	ioErr := l.drainLocked()
	err := l.f.Close()
	l.f = nil
	if ioErr != nil && err == nil {
		err = ioErr
	}
	return err
}

// FileSnapshots stores snapshots as files in a directory, one per
// checkpoint, keeping only the latest.
type FileSnapshots struct {
	mu  sync.Mutex
	dir string
}

// NewFileSnapshots returns a snapshot store rooted at dir (created if
// needed).
func NewFileSnapshots(dir string) (*FileSnapshots, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileSnapshots{dir: dir}, nil
}

// Save implements SnapshotStore. The snapshot bytes are fsynced to a temp
// file before the rename and the directory is fsynced after it, so a
// checkpoint reported saved cannot vanish (or appear truncated) on power
// loss — a snapshot whose WAL prefix has been compacted away is the only
// copy of that state.
func (s *FileSnapshots) Save(id uint64, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := filepath.Join(s.dir, "snap.tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := fileSync(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	final := filepath.Join(s.dir, fmt.Sprintf("snap-%016d", id))
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := dirSync(s.dir); err != nil {
		return err
	}
	// Drop older snapshots.
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil //nolint:nilerr // best-effort cleanup
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(final) && len(e.Name()) == len("snap-0000000000000000") {
			os.Remove(filepath.Join(s.dir, e.Name()))
		}
	}
	return nil
}

// Load implements SnapshotStore.
func (s *FileSnapshots) Load() (uint64, []byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, nil, false, err
	}
	best := ""
	var bestID uint64
	for _, e := range entries {
		var id uint64
		if _, err := fmt.Sscanf(e.Name(), "snap-%d", &id); err == nil {
			if best == "" || id > bestID {
				best, bestID = e.Name(), id
			}
		}
	}
	if best == "" {
		return 0, nil, false, nil
	}
	data, err := os.ReadFile(filepath.Join(s.dir, best))
	if err != nil {
		return 0, nil, false, err
	}
	return bestID, data, true, nil
}

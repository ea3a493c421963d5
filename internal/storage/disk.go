package storage

import (
	"bytes"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"sync"
)

// Disk is the file system under a log and a snapshot store: named files
// in a tree of directories. Names are slash-separated and relative to the
// disk's root. OSDisk is the operating system's; MemDisk keeps files in
// memory for the simulator and tests.
type Disk interface {
	// Open opens name for appending, creating it (and its directory) when
	// it does not exist, which created reports. trunc empties the file.
	Open(name string, trunc bool) (f File, created bool, err error)
	ReadFile(name string) ([]byte, error)
	// Rename replaces to with from.
	Rename(from, to string) error
	// SyncDir makes dir's entries durable: files created in it and
	// renamed into or out of it.
	SyncDir(dir string) error
}

// File is an open file: writes append at its end, Sync makes what was
// written durable, and Truncate shrinks the file to size bytes.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Close() error
}

// writeFile writes chunks to a fresh file name on d, fsyncing it before
// the close when sync is set.
func writeFile(d Disk, name string, sync bool, chunks ...[]byte) error {
	f, _, err := d.Open(name, true)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err = f.Write(c); err != nil {
			break
		}
	}
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// OSDisk is the operating system's file system rooted at a directory.
type OSDisk string

func (d OSDisk) path(name string) string { return filepath.Join(string(d), filepath.FromSlash(name)) }

// Open implements Disk.
func (d OSDisk) Open(name string, trunc bool) (File, bool, error) {
	p := d.path(name)
	_, statErr := os.Stat(p)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return nil, false, err
	}
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if trunc {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(p, flags, 0o644)
	if err != nil {
		return nil, false, err
	}
	return f, errors.Is(statErr, fs.ErrNotExist), nil
}

// ReadFile implements Disk.
func (d OSDisk) ReadFile(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

// Rename implements Disk.
func (d OSDisk) Rename(from, to string) error { return os.Rename(d.path(from), d.path(to)) }

// SyncDir implements Disk.
func (d OSDisk) SyncDir(dir string) error {
	f, err := os.Open(d.path(dir))
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// ErrInjected is the error writes armed by MemDisk.FailWrites fail with.
var ErrInjected = errors.New("storage: injected write error")

// errStale reports use of a MemDisk file handle opened before a Crash.
var errStale = errors.New("storage: file handle from before a crash")

// MemDisk is an in-memory Disk that models what survives power loss. It
// keeps each file's written bytes apart from its synced ones, and the
// directory entries callers see apart from the ones a SyncDir made
// durable, so Crash can drop exactly what was never synced. Nothing it
// does charges time, and it never blocks beyond its own short lock.
type MemDisk struct {
	mu       sync.Mutex
	files    map[string]*memFile // entries as callers see them
	durable  map[string]*memFile // entries as of their directory's last SyncDir
	epoch    int                 // bumped by Crash, which fails older handles
	failName string              // the file FailWrites armed
	failing  int                 // writes to it still armed to fail
}

// memFile is one file's contents: data is what reads see, synced what a
// crash keeps. Writes append to data, so synced is a prefix of it until a
// Truncate; the two may share an array, which appends never overwrite
// below len(synced).
type memFile struct {
	data, synced []byte
}

// NewMemDisk returns an empty in-memory disk.
func NewMemDisk() *MemDisk {
	return &MemDisk{files: map[string]*memFile{}, durable: map[string]*memFile{}}
}

// FailWrites arms the next n writes to the file opened as name to fail
// with ErrInjected, writing nothing: a dying disk under that file. n = 0
// disarms.
func (d *MemDisk) FailWrites(name string, n int) {
	d.mu.Lock()
	d.failName, d.failing = name, n
	d.mu.Unlock()
}

// Crash models power loss. Every directory entry not yet made durable by
// SyncDir disappears (and every durable one renamed away comes back),
// each file falls back to its synced bytes plus up to torn bytes of its
// unsynced tail (a positive torn can tear the last frame written), and
// every open handle fails from then on.
func (d *MemDisk) Crash(torn int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.epoch++
	d.files = make(map[string]*memFile, len(d.durable))
	for name, f := range d.durable {
		if n := len(f.synced); torn > 0 && len(f.data) > n && bytes.Equal(f.data[:n], f.synced) {
			f.synced = f.data[:min(len(f.data), n+torn)]
		}
		f.data = f.synced
		d.files[name] = f
	}
}

// Open implements Disk.
func (d *MemDisk) Open(name string, trunc bool) (File, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		f = &memFile{}
		d.files[name] = f
	}
	if trunc {
		f.data = nil
	}
	return &memHandle{d: d, f: f, name: name, epoch: d.epoch}, !ok, nil
}

// ReadFile implements Disk.
func (d *MemDisk) ReadFile(name string) ([]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "read", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// Rename implements Disk.
func (d *MemDisk) Rename(from, to string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[from]
	if !ok {
		return &fs.PathError{Op: "rename", Path: from, Err: fs.ErrNotExist}
	}
	delete(d.files, from)
	d.files[to] = f
	return nil
}

// SyncDir implements Disk.
func (d *MemDisk) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	maps.DeleteFunc(d.durable, func(name string, _ *memFile) bool {
		return path.Dir(name) == path.Clean(dir)
	})
	for name, f := range d.files {
		if path.Dir(name) == path.Clean(dir) {
			d.durable[name] = f
		}
	}
	return nil
}

// memHandle is an open MemDisk file.
type memHandle struct {
	d     *MemDisk
	f     *memFile
	name  string // as opened, which FailWrites matches
	epoch int
}

// do runs op on the file under the disk's lock, failing a handle from
// before a crash.
func (h *memHandle) do(op func(f *memFile)) error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.epoch != h.d.epoch {
		return errStale
	}
	op(h.f)
	return nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	switch {
	case h.epoch != h.d.epoch:
		return 0, errStale
	case h.d.failing > 0 && h.name == h.d.failName:
		h.d.failing--
		return 0, ErrInjected
	}
	h.f.data = append(h.f.data, p...)
	return len(p), nil
}

func (h *memHandle) Sync() error { return h.do(func(f *memFile) { f.synced = f.data }) }

func (h *memHandle) Truncate(size int64) error {
	// Into a fresh array: later writes must not overwrite synced bytes.
	return h.do(func(f *memFile) { f.data = append([]byte(nil), f.data[:size]...) })
}

func (h *memHandle) Close() error { return h.do(func(*memFile) {}) }

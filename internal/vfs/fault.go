package vfs

import (
	"io/fs"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Op names one interceptable file operation.
type Op uint8

const (
	// OpAny matches every operation.
	OpAny Op = iota
	// OpOpen covers read opens (Open, and OpenFile without O_CREATE).
	OpOpen
	// OpCreate covers file creation (OpenFile with O_CREATE, CreateTemp,
	// WriteFile, MkdirAll).
	OpCreate
	// OpWrite covers File.Write and WriteFile bodies.
	OpWrite
	// OpSync covers File.Sync.
	OpSync
	// OpRename covers Rename.
	OpRename
	// OpRemove covers Remove.
	OpRemove
	// OpRead covers File.Read/ReadAt and ReadDir.
	OpRead
	// OpTruncate covers Truncate (path and file forms).
	OpTruncate
)

var opNames = map[Op]string{
	OpAny: "any", OpOpen: "open", OpCreate: "create", OpWrite: "write",
	OpSync: "sync", OpRename: "rename", OpRemove: "remove", OpRead: "read",
	OpTruncate: "truncate",
}

func (o Op) String() string { return opNames[o] }

// Rule is one fault-injection rule: which calls it matches (operation +
// path substring) and what happens to them (an injected error after a
// countdown, optionally tearing a write short or delaying the call).
// The zero error defaults to EIO.
type Rule struct {
	// Op restricts the rule to one operation kind; OpAny matches all.
	Op Op
	// Path, when non-empty, requires the call's path to contain it.
	Path string
	// After skips the first After matching calls before injecting — the
	// fail-after-N knob. Zero injects from the first match.
	After int
	// Count, when positive, injects into at most Count calls and then
	// lets the rest through — a transient fault. Zero injects forever
	// (persistent).
	Count int
	// Err is the injected error; nil selects EIO.
	Err error
	// TornBytes, on a matched OpWrite, writes this many bytes of the
	// buffer through to the real file before failing — a torn write.
	// It also applies to OpSync: the write preceding the failed fsync
	// stays, exactly like a real power-cut mid-fsync.
	TornBytes int
	// Delay sleeps before the operation proceeds (or fails) — slow IO.
	// A rule with Delay and a nil outcome (Count consumed) still sleeps.
	Delay time.Duration

	seen int // matching calls observed (guarded by the FaultFS mutex)
}

// FaultFS wraps another FS and injects faults per a mutable rule set.
// Safe for concurrent use. With no rules installed every call passes
// straight through, so a test can flip a healthy filesystem sick and
// back mid-run — exactly what the degradation supervisor's recovery
// probes need.
type FaultFS struct {
	base FS

	mu       sync.Mutex
	rules    []*Rule
	injected uint64
}

// NewFaultFS wraps base (nil selects the real filesystem).
func NewFaultFS(base FS) *FaultFS {
	return &FaultFS{base: Default(base)}
}

// Inject installs a rule and returns its handle for ClearRule.
func (f *FaultFS) Inject(r Rule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	rule := r
	f.rules = append(f.rules, &rule)
	return &rule
}

// ClearRule removes one rule; unknown handles are ignored.
func (f *FaultFS) ClearRule(r *Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, have := range f.rules {
		if have == r {
			f.rules = append(f.rules[:i], f.rules[i+1:]...)
			return
		}
	}
}

// Clear removes every rule — the "disk healed" switch.
func (f *FaultFS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// Injected returns how many faults have been injected so far.
func (f *FaultFS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// check matches one call against the rule set. It returns the error to
// inject (nil = proceed) and, for writes, how many bytes to let through
// first (-1 = all). The first matching rule that decides to inject
// wins; rules that merely delay still sleep.
func (f *FaultFS) check(op Op, path string) (error, int) {
	f.mu.Lock()
	var inject error
	torn := -1
	var delay time.Duration
	for _, r := range f.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.Delay > delay {
			delay = r.Delay
		}
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.seen > r.After+r.Count {
			continue
		}
		if inject == nil {
			inject = r.Err
			if inject == nil {
				inject = syscall.EIO
			}
			if op == OpWrite || op == OpSync {
				torn = r.TornBytes
			}
			f.injected++
		}
	}
	f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return inject, torn
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	op := OpOpen
	if flag&(syscall.O_CREAT) != 0 {
		op = OpCreate
	}
	if err, _ := f.check(op, name); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.base.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: name}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if err, _ := f.check(OpOpen, name); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	file, err := f.base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: name}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err, _ := f.check(OpCreate, dir+"/"+pattern); err != nil {
		return nil, &fs.PathError{Op: "createtemp", Path: pattern, Err: err}
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{f: file, fs: f, path: file.Name()}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err, _ := f.check(OpRename, newpath); err != nil {
		return &fs.PathError{Op: "rename", Path: newpath, Err: err}
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if err, _ := f.check(OpRemove, name); err != nil {
		return &fs.PathError{Op: "remove", Path: name, Err: err}
	}
	return f.base.Remove(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err, _ := f.check(OpTruncate, name); err != nil {
		return &fs.PathError{Op: "truncate", Path: name, Err: err}
	}
	return f.base.Truncate(name, size)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if err, _ := f.check(OpCreate, path); err != nil {
		return &fs.PathError{Op: "mkdir", Path: path, Err: err}
	}
	return f.base.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _ := f.check(OpRead, name); err != nil {
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: err}
	}
	return f.base.ReadDir(name)
}

func (f *FaultFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if err, _ := f.check(OpWrite, name); err != nil {
		return &fs.PathError{Op: "write", Path: name, Err: err}
	}
	return f.base.WriteFile(name, data, perm)
}

func (f *FaultFS) Glob(pattern string) ([]string, error) {
	return f.base.Glob(pattern)
}

// faultFile interposes the per-handle operations.
type faultFile struct {
	f    File
	fs   *FaultFS
	path string
}

func (ff *faultFile) Read(p []byte) (int, error) {
	if err, _ := ff.fs.check(OpRead, ff.path); err != nil {
		return 0, err
	}
	return ff.f.Read(p)
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err, _ := ff.fs.check(OpRead, ff.path); err != nil {
		return 0, err
	}
	return ff.f.ReadAt(p, off)
}

func (ff *faultFile) Write(p []byte) (int, error) {
	err, torn := ff.fs.check(OpWrite, ff.path)
	if err == nil {
		return ff.f.Write(p)
	}
	n := 0
	if torn > 0 {
		if torn > len(p) {
			torn = len(p)
		}
		// Write the torn prefix through for real: the bytes are in the
		// file, the caller sees the error — the exact shape a torn write
		// leaves on disk.
		n, _ = ff.f.Write(p[:torn])
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.check(OpSync, ff.path); err != nil {
		return err
	}
	return ff.f.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err, _ := ff.fs.check(OpTruncate, ff.path); err != nil {
		return err
	}
	return ff.f.Truncate(size)
}

func (ff *faultFile) Close() error               { return ff.f.Close() }
func (ff *faultFile) Name() string               { return ff.f.Name() }
func (ff *faultFile) Stat() (fs.FileInfo, error) { return ff.f.Stat() }

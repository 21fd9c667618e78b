// Package vfs is the storage-fault seam of the persistence layer: a
// minimal filesystem interface threaded through the WAL, the archive,
// and server checkpoints so tests can inject EIO, ENOSPC, torn writes
// and slow IO at any file operation, and the serving layer can degrade
// gracefully instead of fail-stopping until a restart.
//
// The default implementation (OS) is a zero-state pass-through to the
// os package: the only cost on the hot append path is an interface
// method dispatch — no allocation, no locking, no bookkeeping. The
// fault-injecting implementation lives in fault.go.
//
// Classification helpers (Classify, IsNoSpace) turn raw syscall errors
// into the degradation policy's vocabulary: out-of-space errors flip a
// tenant read-only until a probe succeeds, IO errors are retried with
// backoff before being treated as persistent.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
)

// File is the subset of *os.File the storage layer uses. *os.File
// implements it directly.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	Name() string
	Sync() error
	Truncate(size int64) error
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem seam. Every method mirrors the os (or filepath)
// function of the same name; implementations must preserve those
// semantics exactly — in particular the error values (fs.ErrNotExist,
// fs.ErrExist) callers branch on.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Open(name string) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	ReadDir(name string) ([]fs.DirEntry, error)
	WriteFile(name string, data []byte, perm fs.FileMode) error
	Glob(pattern string) ([]string, error)
}

// OS is the pass-through filesystem — the production default.
var OS FS = osFS{}

// Default returns f, or the pass-through OS filesystem when f is nil —
// the one-line option plumbing every storage layer uses.
func Default(f FS) FS {
	if f == nil {
		return OS
	}
	return f
}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error {
	return os.Truncate(name, size)
}
func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

// ErrClass buckets a storage error by the degradation policy it calls
// for.
type ErrClass int

const (
	// ClassNone: no error.
	ClassNone ErrClass = iota
	// ClassNoSpace: the device is out of space (ENOSPC or quota). More
	// retries cannot help until space is freed — flip read-only and
	// probe.
	ClassNoSpace
	// ClassIO: the device reported an IO error (EIO and kin). Often
	// transient (a path blip, a controller hiccup) — retry with capped
	// backoff before treating it as persistent.
	ClassIO
	// ClassOther: anything else (corruption, logic errors, closed
	// files). Not a device condition; retrying is not the answer.
	ClassOther
)

// Classify buckets err for the degradation supervisor.
func Classify(err error) ErrClass {
	switch {
	case err == nil:
		return ClassNone
	case IsNoSpace(err):
		return ClassNoSpace
	case errors.Is(err, syscall.EIO):
		return ClassIO
	default:
		return ClassOther
	}
}

// IsNoSpace reports whether err is an out-of-space condition (ENOSPC,
// or the quota-exceeded variant some filesystems return instead).
func IsNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

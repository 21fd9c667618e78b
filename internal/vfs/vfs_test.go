package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

func TestOSPassThrough(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")
	f, err := OS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadFile = %q, %v", data, err)
	}
	if err := OS.Rename(path, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	entries, err := OS.ReadDir(dir)
	if err != nil || len(entries) != 1 || entries[0].Name() != "b.txt" {
		t.Fatalf("ReadDir after rename = %v, %v", entries, err)
	}
	matches, err := OS.Glob(filepath.Join(dir, "*.txt"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("Glob = %v, %v", matches, err)
	}
}

func TestDefault(t *testing.T) {
	if Default(nil) != OS {
		t.Fatal("Default(nil) should be the OS filesystem")
	}
	ff := NewFaultFS(nil)
	if Default(ff) != FS(ff) {
		t.Fatal("Default must pass a non-nil FS through")
	}
}

func TestFaultErrorByPattern(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil)
	ff.Inject(Rule{Op: OpWrite, Path: ".wal", Err: syscall.ENOSPC})

	// Writes to a non-matching path pass.
	ok, err := ff.OpenFile(filepath.Join(dir, "x.log"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.Write([]byte("fine")); err != nil {
		t.Fatalf("non-matching write failed: %v", err)
	}
	ok.Close()

	// Writes to a matching path fail with the configured error.
	bad, err := ff.OpenFile(filepath.Join(dir, "seg-1.wal"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte("doomed")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("matching write error = %v, want ENOSPC", err)
	}
	if got := ff.Injected(); got != 1 {
		t.Fatalf("Injected = %d, want 1", got)
	}
}

func TestFaultFailAfterN(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil)
	ff.Inject(Rule{Op: OpWrite, After: 2, Count: 1}) // 3rd write fails with EIO, rest pass

	f, err := ff.OpenFile(filepath.Join(dir, "f"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := 1; i <= 4; i++ {
		_, err := f.Write([]byte("x"))
		wantFail := i == 3
		if gotFail := err != nil; gotFail != wantFail {
			t.Fatalf("write %d: err=%v, want failure=%v", i, err, wantFail)
		}
		if wantFail && !errors.Is(err, syscall.EIO) {
			t.Fatalf("write %d: err=%v, want EIO default", i, err)
		}
	}
}

func TestFaultTornWrite(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil)
	ff.Inject(Rule{Op: OpWrite, TornBytes: 3, Count: 1})

	path := filepath.Join(dir, "torn")
	f, err := ff.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, werr := f.Write([]byte("abcdef"))
	f.Close()
	if werr == nil || n != 3 {
		t.Fatalf("torn write = (%d, %v), want (3, EIO)", n, werr)
	}
	data, _ := os.ReadFile(path)
	if string(data) != "abc" {
		t.Fatalf("on-disk torn prefix = %q, want \"abc\"", data)
	}
}

func TestFaultSlowIO(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil)
	ff.Inject(Rule{Op: OpSync, Delay: 30 * time.Millisecond, Count: 1, Err: syscall.EIO})

	f, err := ff.OpenFile(filepath.Join(dir, "slow"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	start := time.Now()
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("sync err = %v, want EIO", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("sync returned after %v, want >= 30ms delay", d)
	}
	// Rule consumed: next sync is fast and clean.
	if err := f.Sync(); err != nil {
		t.Fatalf("post-recovery sync: %v", err)
	}
}

func TestFaultClear(t *testing.T) {
	dir := t.TempDir()
	ff := NewFaultFS(nil)
	r := ff.Inject(Rule{Op: OpWrite})
	ff.Inject(Rule{Op: OpSync})

	f, err := ff.OpenFile(filepath.Join(dir, "c"), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write should fail before ClearRule")
	}
	ff.ClearRule(r)
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatalf("write after ClearRule: %v", err)
	}
	if err := f.Sync(); err == nil {
		t.Fatal("sync rule should still be active")
	}
	ff.Clear()
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after Clear: %v", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want ErrClass
	}{
		{nil, ClassNone},
		{syscall.ENOSPC, ClassNoSpace},
		{syscall.EDQUOT, ClassNoSpace},
		{syscall.EIO, ClassIO},
		{errors.New("something else"), ClassOther},
		{&os.PathError{Op: "write", Path: "x", Err: syscall.ENOSPC}, ClassNoSpace},
		{&os.PathError{Op: "write", Path: "x", Err: syscall.EIO}, ClassIO},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	if !IsNoSpace(syscall.ENOSPC) || IsNoSpace(syscall.EIO) {
		t.Error("IsNoSpace misclassifies")
	}
}

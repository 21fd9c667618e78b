package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// A snapshot at seq that finds records past seq in a segment starting at
// or before seq writes, in this order: the snapshot's temp file, a temp
// file holding a copy of those records, the snapshot's name, the copy's
// name (seg-<seq+1>), one directory fsync, and then compaction deletes
// the segment the records came from. The tests below stage the
// directory a crash leaves between each pair of steps — files written by
// hand, as a crash leaves them — and open it.

// stagedLog writes records 1..5 into one segment, closes the log, and
// returns the directory and the frames of records 4 and 5 as a snapshot
// at 3 copies them.
func stagedLog(t *testing.T) (dir string, tail []byte) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := appendAcked(l, batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	r := &Log{dir: dir, fs: vfs.OS}
	if _, _, err := r.scanSegment(1, func(seq uint64, payload []byte) error {
		if seq > 3 {
			tail = appendFrame(tail, payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dir, tail
}

// stage writes one file of a staged crash directory.
func stage(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil { //repro:vfs-exempt hand-built directory of a crashed snapshot, not storage-layer I/O
		t.Fatal(err)
	}
}

// dirNames lists dir's file names, sorted.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

// batches is the replay of records from..to as batch builds them.
func batches(from, to int) map[uint64][]stream.Message {
	out := map[uint64][]stream.Message{}
	for i := from; i <= to; i++ {
		out[uint64(i)] = batch(i, 2)
	}
	return out
}

func snapshotAt(t *testing.T, l *Log, seq uint64) {
	t.Helper()
	if err := l.Snapshot(seq, func(w io.Writer) error { _, err := io.WriteString(w, "state"); return err }); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCrashWindows opens the directory a crash leaves at every
// step of a snapshot at 3 over a segment holding records 1..5: replay
// from the newest snapshot must yield every record it does not cover,
// once each, and the next snapshot must leave only the records it does
// not cover.
func TestSnapshotCrashWindows(t *testing.T) {
	for _, tc := range []struct {
		name    string
		files   func(tail []byte) map[string][]byte
		snap    uint64   // the snapshot Open finds
		segs    []string // the segments after Open
		next    uint64   // a later snapshot …
		nextSeg []string // … and the segments it leaves
	}{
		{
			name: "temp files written",
			files: func(tail []byte) map[string][]byte {
				return map[string][]byte{"snap-tmp-1": []byte("state"), "snap-tmp-2": tail}
			},
			segs: []string{"seg-00000000000000000001.wal"},
			next: 4, nextSeg: []string{"seg-00000000000000000005.wal"},
		},
		{
			name: "snapshot renamed",
			files: func([]byte) map[string][]byte {
				return map[string][]byte{"snap-00000000000000000003.snap": []byte("state")}
			},
			snap: 3, segs: []string{"seg-00000000000000000001.wal"},
			next: 4, nextSeg: []string{"seg-00000000000000000005.wal"},
		},
		{
			name: "copy renamed, snapshot not",
			files: func(tail []byte) map[string][]byte {
				return map[string][]byte{"snap-tmp-1": []byte("state"), "seg-00000000000000000004.wal": tail}
			},
			segs: []string{"seg-00000000000000000001.wal", "seg-00000000000000000004.wal"},
			next: 3, nextSeg: []string{"seg-00000000000000000004.wal"},
		},
		{
			name: "both renamed, source not deleted",
			files: func(tail []byte) map[string][]byte {
				return map[string][]byte{"snap-00000000000000000003.snap": []byte("state"), "seg-00000000000000000004.wal": tail}
			},
			snap: 3, segs: []string{"seg-00000000000000000001.wal", "seg-00000000000000000004.wal"},
			next: 5, nextSeg: nil,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, tail := stagedLog(t)
			for name, data := range tc.files(tail) {
				stage(t, dir, name, data)
			}
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if l.SnapshotSeq() != tc.snap || l.LastSeq() != 5 {
				t.Fatalf("Open found snapshot %d, last record %d; want %d, 5", l.SnapshotSeq(), l.LastSeq(), tc.snap)
			}
			var segs []string
			for _, n := range dirNames(t, dir) {
				if strings.HasPrefix(n, "snap-tmp-") {
					t.Fatalf("temp file %s survived Open", n)
				}
				if strings.HasPrefix(n, segPrefix) {
					segs = append(segs, n)
				}
			}
			if !slices.Equal(segs, tc.segs) {
				t.Fatalf("segments after Open = %v, want %v", segs, tc.segs)
			}
			if got := collect(t, l, tc.snap); !reflect.DeepEqual(got, batches(int(tc.snap)+1, 5)) {
				t.Fatalf("replay past %d = %v, want records %d to 5", tc.snap, got, tc.snap+1)
			}
			snapshotAt(t, l, tc.next)
			segs = segs[:0]
			for _, n := range dirNames(t, dir) {
				if strings.HasPrefix(n, segPrefix) {
					segs = append(segs, n)
				}
			}
			if !slices.Equal(segs, tc.nextSeg) || l.SegmentCount() != len(tc.nextSeg) {
				t.Fatalf("segments after snapshot %d = %v (count %d), want %v", tc.next, segs, l.SegmentCount(), tc.nextSeg)
			}
			if got := collect(t, l, tc.next); !reflect.DeepEqual(got, batches(int(tc.next)+1, 5)) {
				t.Fatalf("replay past %d = %v", tc.next, got)
			}
		})
	}
}

// TestSnapshotOverlapMustMatch: two segments that hold one record with
// different bytes, or a later segment that lacks records an earlier one
// holds past its start, are not a crashed snapshot's copy — a reused
// sequence number looks like that — and Open refuses them with
// ErrCorrupt, changing nothing.
func TestSnapshotOverlapMustMatch(t *testing.T) {
	for name, damage := range map[string]func(tail []byte) []byte{
		"record differs": func(tail []byte) []byte {
			// Record 5 changes a byte, framed with a matching CRC.
			p := framePayloads(t, slices.Clone(tail))
			p[1][len(p[1])-1] ^= 0xFF
			return appendFrame(appendFrame(nil, p[0]), p[1])
		},
		"record missing": func(tail []byte) []byte {
			return appendFrame(nil, framePayloads(t, tail)[0])
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir, tail := stagedLog(t)
			stage(t, dir, "seg-00000000000000000004.wal", damage(tail))
			before, err := os.ReadFile(filepath.Join(dir, "seg-00000000000000000001.wal"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
			after, err := os.ReadFile(filepath.Join(dir, "seg-00000000000000000001.wal"))
			if err != nil || string(after) != string(before) {
				t.Fatalf("Open changed the older segment (%v)", err)
			}
		})
	}
}

// framePayloads splits concatenated frames into their payloads, without
// checking CRCs.
func framePayloads(t *testing.T, frames []byte) [][]byte {
	t.Helper()
	var out [][]byte
	for len(frames) >= frameHdr {
		n := int(frames[0])<<24 | int(frames[1])<<16 | int(frames[2])<<8 | int(frames[3])
		if len(frames) < frameHdr+n {
			t.Fatalf("short frame")
		}
		out = append(out, frames[frameHdr:frameHdr+n])
		frames = frames[frameHdr+n:]
	}
	return out
}

// TestSnapshotCopyWithdrawnUntilDirSynced: when the directory fsync that
// would make the copy's name durable fails, the copy is removed again,
// so the running log never holds two segments with one record; the
// covered segment stays, and a retry succeeds.
func TestSnapshotCopyWithdrawnUntilDirSynced(t *testing.T) {
	dir := t.TempDir()
	sl := newSyncLog()
	l, err := Open(dir, Options{FS: sl})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 1; i <= 5; i++ {
		if _, err := appendAcked(l, batch(i, 2)); err != nil {
			t.Fatal(err)
		}
	}
	sl.setFail(dir, true)
	if err := l.Snapshot(3, func(w io.Writer) error { _, err := io.WriteString(w, "state"); return err }); err == nil {
		t.Fatal("snapshot reported success without a durable directory entry")
	}
	if got, want := dirNames(t, dir), []string{"seg-00000000000000000001.wal", "snap-00000000000000000003.snap"}; !slices.Equal(got, want) {
		t.Fatalf("after the failed snapshot: %v, want %v", got, want)
	}
	if got := collect(t, l, 0); !reflect.DeepEqual(got, batches(1, 5)) {
		t.Fatalf("replay = %v, want records 1 to 5", got)
	}
	sl.setFail(dir, false)
	snapshotAt(t, l, 3)
	if got, want := dirNames(t, dir), []string{"seg-00000000000000000004.wal", "snap-00000000000000000003.snap"}; !slices.Equal(got, want) || l.SegmentCount() != 1 {
		t.Fatalf("after the retry: %v (count %d), want %v", got, l.SegmentCount(), want)
	}
}

// TestSnapshotBesideCommits snapshots a lagging position again and again
// while another goroutine appends and commits, as a tenant's worker does
// beside its ingest path: every snapshot splits a segment that commits
// keep extending. Afterwards the disk must hold no record the last
// snapshot covers, and the reopened log must replay exactly the records
// past it, once each. Run it under -race.
func TestSnapshotBesideCommits(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	committed := make(chan uint64, n)
	done := make(chan error, 1)
	go func() {
		defer close(committed)
		for i := 1; i <= n; i++ {
			seq, err := appendAcked(l, batch(i, 1))
			if err != nil {
				done <- err
				return
			}
			committed <- seq
		}
		done <- nil
	}()
	var applied, snap uint64
	for seq := range committed {
		applied = seq
		if seq%7 == 0 && applied > 3 {
			snap = applied - 3 // a snapshot a few records behind the log
			if err := l.Snapshot(snap, func(w io.Writer) error { _, err := fmt.Fprintf(w, "state through %d", snap); return err }); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	disk, _ := readDisk(t, dir)
	for seq := range disk {
		if seq <= snap {
			t.Fatalf("record %d, covered by snapshot %d, is still on disk", seq, snap)
		}
	}
	l2, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.SnapshotSeq() != snap {
		t.Fatalf("snapshot %d after reopen, want %d", l2.SnapshotSeq(), snap)
	}
	want := map[uint64][]stream.Message{}
	for i := int(snap) + 1; i <= n; i++ {
		want[uint64(i)] = batch(i, 1)
	}
	if got := collect(t, l2, snap); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay past %d: %d records, want %d to %d", snap, len(got), snap+1, n)
	}
}

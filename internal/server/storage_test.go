package server

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/archive"
	"repro/internal/obs"
	"repro/internal/vfs"
)

// TestStorageOwner drives tenantStorage directly through its whole
// surface — restore, append, flush marker, commit, snapshot, close — in
// each configuration NewPool admits. A disabled subsystem must be a
// no-op in there (sequence 0, no save callback, nothing in the metrics)
// so that no caller has to ask what is enabled; and a failing archive
// device must not stop the snapshot, which carries the archive's buffer
// itself.
func TestStorageOwner(t *testing.T) {
	cases := []struct {
		name      string
		wal, arch bool
	}{
		{"memory-only", false, false},
		{"wal-only", true, false},
		{"wal+archive", true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ffs := vfs.NewFaultFS(nil)
			cfg := PoolConfig{Detector: testDetectConfig(), FS: ffs}.withDefaults()
			if tc.wal {
				cfg.WALDir = filepath.Join(dir, "wal")
			}
			if tc.arch {
				cfg.ArchiveDir = filepath.Join(dir, "archive")
			}
			tob := obs.NewTenantObs()
			st, err := openStorage(cfg, "acme", tob, func() {})
			if err != nil {
				t.Fatal(err)
			}
			if st.durable() != tc.wal || (st.archive() != nil) != tc.arch || st.failStopped() {
				t.Fatalf("durable %v archive %v failStopped %v", st.durable(), st.archive() != nil, st.failStopped())
			}
			det, base, last, err := st.restore()
			if err != nil || det == nil || base != 0 || last != 0 {
				t.Fatalf("restore of an empty store = (%v, %d, %d, %v)", det, base, last, err)
			}

			// Sequences count records when there is a log and stay 0 — the
			// "never logged" value commit accepts — when there is none.
			want := func(n uint64) uint64 {
				if tc.wal {
					return n
				}
				return 0
			}
			msgs := quantumOf(0, "harbour fire spreading")
			seq, err := st.append(msgs, false)
			if err != nil || seq != want(1) {
				t.Fatalf("append = (%d, %v), want seq %d", seq, err, want(1))
			}
			var mu sync.Mutex
			applyRecord(det, &mu, 0, msgs, false, nil, nil)
			fseq, err := st.append(nil, true)
			if err != nil || fseq != want(2) {
				t.Fatalf("flush marker = (%d, %v), want seq %d", fseq, err, want(2))
			}
			for _, s := range []uint64{seq, fseq} {
				if err := st.commit(s); err != nil {
					t.Fatalf("commit(%d): %v", s, err)
				}
			}

			saves := 0
			save := func(w io.Writer) error { saves++; return det.Save(w) }
			snapSeq := func() uint64 {
				var m TenantMetrics
				st.fillMetrics(&m)
				return m.WALSnapshotSeq
			}
			if tc.arch {
				// An eviction buffered while the archive device fails: the
				// snapshot carries it without touching that device.
				if err := st.arch.Append(archive.Record{Seq: 1, ID: 7, State: "ended", Keywords: []string{"fire"}}); err != nil {
					t.Fatal(err)
				}
				ffs.Inject(vfs.Rule{Op: vfs.OpAny, Path: cfg.ArchiveDir})
			}
			if err := st.snapshot(fseq, save); err != nil {
				t.Fatal(err)
			}
			if saves != int(want(1)) || snapSeq() != fseq || ffs.Injected() != 0 {
				t.Fatalf("snapshot: %d saves, snapshot seq %d, %d archive faults hit; want %d, %d, 0",
					saves, snapSeq(), ffs.Injected(), want(1), fseq)
			}
			if snaps := tob.Snapshot(obs.StageWALSnapshot).Count; snaps != b2u(tc.wal) || st.archErrs.Load()+st.walErrs.Load() != 0 {
				t.Fatalf("observed %d snapshot writes, %d archive / %d wal errors", snaps, st.archErrs.Load(), st.walErrs.Load())
			}
			ffs.Clear()

			var m TenantMetrics
			st.fillMetrics(&m)
			if m.WALEnabled != tc.wal || m.ArchiveEnabled != tc.arch || m.WALLastSeq != fseq ||
				m.ArchiveEvents != int(b2u(tc.arch)) || m.ArchiveColumnarSegments != 0 || m.Degraded {
				t.Fatalf("metrics share: %+v", m)
			}
			if err := st.close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			// What was logged comes back: a second owner over the same
			// directories restores from the snapshot with nothing to replay.
			st2, err := openStorage(cfg, "acme", tob, func() {})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.close() //nolint:errcheck // test teardown
			det2, _, last2, err := st2.restore()
			if err != nil || last2 != fseq || det2.Processed() != uint64(want(8)) {
				t.Fatalf("second restore = (%d processed, last %d, %v), want (%d, %d, nil)",
					det2.Processed(), last2, err, want(8), fseq)
			}
			if tc.arch && st2.arch.EventCount() != 1 {
				t.Fatalf("second owner's archive holds %d events, want the buffered one", st2.arch.EventCount())
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// archiveOwner opens a WAL + archive owner over dir whose archive seals
// every segEvents evictions, restores it and returns it; the caller
// closes it.
func archiveOwner(t *testing.T, dir string, fsys vfs.FS, segEvents int) *tenantStorage {
	t.Helper()
	cfg := PoolConfig{
		Detector:             testDetectConfig(),
		WALDir:               filepath.Join(dir, "wal"),
		ArchiveDir:           filepath.Join(dir, "archive"),
		archiveSegmentEvents: segEvents,
		FS:                   fsys,
	}.withDefaults()
	st, err := openStorage(cfg, "acme", obs.NewTenantObs(), func() {})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// snapshotWithBuffer restores a fresh owner over dir, buffers three
// evictions in its archive, writes one snapshot and closes it, returning
// the snapshot file's path and the buffer image it ends with.
func snapshotWithBuffer(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	st := archiveOwner(t, dir, nil, 100)
	defer st.close() //nolint:errcheck // test teardown
	det, _, _, err := st.restore()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if err := st.arch.Append(archive.Record{Seq: i, ID: 10 * i, State: "ended", Keywords: []string{"fire"}}); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := st.append(quantumOf(0, "harbour fire spreading"), false)
	if err == nil {
		err = st.commit(seq)
	}
	if err == nil {
		err = st.snapshot(seq, det.Save)
	}
	if err != nil {
		t.Fatal(err)
	}
	var image bytes.Buffer
	if err := st.arch.WriteBuffer(&image); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "wal", "acme", "snap-*"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshot files %v (%v), want one", snaps, err)
	}
	return snaps[0], image.Bytes()
}

// TestRestoreRefusesDamagedSnapshot: the buffer image is part of the
// snapshot, so damage to it fails the restore exactly as damage to the
// detector state in front of it does — with an error wrapping
// archive.ErrCorrupt — rather than come back with evictions missing.
func TestRestoreRefusesDamagedSnapshot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		damage  func(raw []byte, image int) []byte
		corrupt bool
	}{
		{"State", func(raw []byte, image int) []byte { return raw[:(len(raw)-image)/2] }, false},
		{"Image", func(raw []byte, image int) []byte { raw[len(raw)-image/2] ^= 0xff; return raw }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path, image := snapshotWithBuffer(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil || !bytes.HasSuffix(raw, image) {
				t.Fatalf("snapshot does not end with the buffer image (%v)", err)
			}
			if err := os.WriteFile(path, tc.damage(raw, len(image)), 0o644); err != nil { //repro:vfs-exempt deliberate out-of-band corruption of on-disk state under test, not storage-layer I/O
				t.Fatal(err)
			}
			st := archiveOwner(t, dir, nil, 100)
			defer st.close() //nolint:errcheck // test teardown
			if _, _, _, err := st.restore(); err == nil || errors.Is(err, archive.ErrCorrupt) != tc.corrupt {
				t.Fatalf("restore of a snapshot with damaged %s = %v, want a failure (wrapping ErrCorrupt: %v)", tc.name, err, tc.corrupt)
			}
		})
	}
}

// TestRestoreCountsSealFailure: handing the snapshot's buffer back can
// fill the archive to its seal bound; a seal that fails on a sick device
// then is counted like any failed seal, keeps the records buffered and
// served, and does not fail the restore.
func TestRestoreCountsSealFailure(t *testing.T) {
	dir := t.TempDir()
	snapshotWithBuffer(t, dir)
	ffs := vfs.NewFaultFS(nil)
	ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: filepath.Join(dir, "archive")})
	st := archiveOwner(t, dir, ffs, 2)
	defer st.close() //nolint:errcheck // test teardown
	if _, _, _, err := st.restore(); err != nil {
		t.Fatalf("restore with a failing seal: %v", err)
	}
	if st.archErrs.Load() == 0 || st.arch.EventCount() != 3 || st.arch.ColumnarSegmentCount() != 0 {
		t.Fatalf("%d archive errors, %d events, %d sealed segments; want > 0, 3, 0",
			st.archErrs.Load(), st.arch.EventCount(), st.arch.ColumnarSegmentCount())
	}
}

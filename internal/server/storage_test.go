package server

import (
	"io"
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
// so that no caller has to ask what is enabled; and the sync-then-
// snapshot path must not write a snapshot past evictions it failed to
// sync.
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
				// An eviction stuck in the archive's buffer behind a sick
				// device: the sync fails, so the snapshot must not happen.
				if err := st.arch.Append(archive.Record{Seq: 1, ID: 7, State: "ended", Keywords: []string{"fire"}}); err != nil {
					t.Fatal(err)
				}
				rule := ffs.Inject(vfs.Rule{Op: vfs.OpWrite, Path: cfg.ArchiveDir})
				if err := st.snapshot(fseq, save); err == nil {
					t.Fatal("snapshot succeeded past a failed sync")
				}
				if saves != 0 || snapSeq() != 0 || st.archErrs.Load() != 1 || st.walErrs.Load() != 0 {
					t.Fatalf("failed sync: %d saves, snapshot seq %d, %d archive / %d wal errors; want 0, 0, 1, 0",
						saves, snapSeq(), st.archErrs.Load(), st.walErrs.Load())
				}
				if n := tob.Snapshot(obs.StageArchiveSeal).Count + tob.Snapshot(obs.StageWALSnapshot).Count; n != 0 {
					t.Fatalf("%d seal/snapshot observations for a pass that wrote neither", n)
				}
				ffs.ClearRule(rule)
			}
			if err := st.snapshot(fseq, save); err != nil {
				t.Fatal(err)
			}
			if saves != int(want(1)) || snapSeq() != fseq {
				t.Fatalf("snapshot: %d saves, snapshot seq %d; want %d, %d", saves, snapSeq(), want(1), fseq)
			}
			seals, snaps := tob.Snapshot(obs.StageArchiveSeal).Count, tob.Snapshot(obs.StageWALSnapshot).Count
			if seals != b2u(tc.arch) || snaps != b2u(tc.wal) {
				t.Fatalf("observed %d seals and %d snapshot writes", seals, snaps)
			}

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
				t.Fatalf("second owner's archive holds %d events, want the synced one", st2.arch.EventCount())
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

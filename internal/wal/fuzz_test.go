package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"syscall"
	"testing"

	"repro/internal/stream"
	"repro/internal/vfs"
)

// The schedule's operations, one per input byte (mod fuzzOps); Commit
// and the fault take a second byte as their argument.
const (
	fuzzAppend = iota
	fuzzAppendFlush
	fuzzCommit
	fuzzFault
	fuzzReopen
	fuzzSnapshot
	fuzzCrash
	fuzzSync
	fuzzOps
)

// fuzzFaults are the injectable faults, each armed for the next matching
// call only.
var fuzzFaults = []vfs.Rule{
	{Op: vfs.OpWrite, Count: 1},
	{Op: vfs.OpWrite, Count: 1, Err: syscall.ENOSPC},
	{Op: vfs.OpWrite, Count: 1, TornBytes: 5},
	{Op: vfs.OpSync, Count: 1},
	{Op: vfs.OpSync, Count: 1, Err: syscall.ENOSPC},
}

// logModel is what one Log instance has been told and has answered.
type logModel struct {
	payload   map[uint64][]byte // every record appended, or found on disk at Open
	seqs      []uint64          // payload's keys, ascending
	committed map[uint64]bool   // Commit returned nil
	refused   map[uint64]bool   // Commit returned an error
	discarded map[uint64]bool   // not on disk after a Reopen repaired the log
	last      uint64            // the largest seq this instance has handed out or found
}

func newLogModel() *logModel {
	return &logModel{payload: map[uint64][]byte{}, committed: map[uint64]bool{}, refused: map[uint64]bool{}, discarded: map[uint64]bool{}}
}

// recordPayload is the framed payload a record's bytes on disk must be.
func recordPayload(msgs []stream.Message, flush bool) []byte {
	if flush {
		return []byte{recFlush}
	}
	return appendBatch([]byte{recBatch}, msgs)
}

// FuzzLogSchedule decodes the input into a schedule of appends, commits
// of any earlier record, injected EIO / ENOSPC / torn writes and failed
// fsyncs, reopens, snapshots, syncs and crashes (the Log dropped with
// nothing flushed or closed, then opened again), runs it against one log
// directory, and after every step checks the commit contract on what is
// on disk: a record whose Commit returned nil is there exactly once with
// its bytes (unless the newest snapshot covers it), a record whose
// Commit failed is not there, any other record there is whole, and
// sequence numbers strictly increase — within a Log's life, across its
// reopens, and on disk. After every reopen and every Open, Replay must
// yield exactly what the disk holds past the snapshot. A snapshot is
// taken at any committed record at or past the newest one — mostly one
// inside a segment, whose records past it must then move — and after
// one succeeds the disk must hold exactly the records it does not cover
// that no reopen discarded.
func FuzzLogSchedule(f *testing.F) {
	f.Add([]byte{fuzzAppend, fuzzAppend, fuzzCommit, 1, fuzzSnapshot, fuzzAppend, fuzzCrash, fuzzAppend, fuzzSync})
	// The discarded-seq case: a flush fails, the log reopens, a later
	// record commits, then the discarded record's Commit is retried.
	f.Add([]byte{fuzzAppend, fuzzSync, fuzzAppend, fuzzFault, 0, fuzzSync, fuzzReopen, fuzzAppend, fuzzCommit, 2, fuzzCommit, 1})
	f.Add([]byte{fuzzAppend, fuzzAppendFlush, fuzzFault, 3, fuzzCommit, 1, fuzzCrash, fuzzAppend, fuzzCommit, 0, fuzzReopen})
	f.Add([]byte{fuzzAppend, fuzzCommit, 0, fuzzAppend, fuzzFault, 2, fuzzCommit, 1, fuzzReopen, fuzzAppend, fuzzCommit, 2, fuzzCrash, fuzzSnapshot})
	f.Add([]byte{fuzzAppend, fuzzCommit, 0, fuzzFault, 4, fuzzSnapshot, fuzzAppend, fuzzFault, 1, fuzzCommit, 1, fuzzReopen, fuzzReopen, fuzzAppend, fuzzSync, fuzzCrash})
	f.Fuzz(func(t *testing.T, schedule []byte) {
		if len(schedule) > 96 {
			schedule = schedule[:96]
		}
		dir := t.TempDir()
		ff := vfs.NewFaultFS(nil)
		open := func() (*Log, *logModel) {
			t.Helper()
			l, err := Open(dir, Options{SegmentBytes: 200, FS: ff})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			m := newLogModel()
			disk, snap := readDisk(t, dir)
			for seq, p := range disk {
				m.payload[seq] = p
				m.seqs = append(m.seqs, seq)
			}
			slices.Sort(m.seqs)
			m.last = l.LastSeq()
			if n := len(m.seqs); n > 0 && m.seqs[n-1] > m.last {
				t.Fatalf("Open: LastSeq %d behind record %d on disk", m.last, m.seqs[n-1])
			}
			checkReplay(t, l, pastSnapshot(disk, snap))
			return l, m
		}
		l, m := open()
		defer func() { l.Close() }() //nolint:errcheck // the log may be fail-stopped
		msgID := uint64(0)
		for i := 0; i < len(schedule); i++ {
			arg := func() int {
				if i+1 < len(schedule) {
					i++
					return int(schedule[i])
				}
				return 0
			}
			switch op := int(schedule[i]) % fuzzOps; op {
			case fuzzAppend, fuzzAppendFlush:
				var seq uint64
				var err error
				var p []byte
				if op == fuzzAppend {
					msgID++
					msgs := []stream.Message{{ID: msgID, User: msgID % 7, Time: int64(msgID), Text: fmt.Sprintf("message %d", msgID)}}
					seq, err = l.Append(msgs)
					p = recordPayload(msgs, false)
				} else {
					seq, err = l.AppendFlush()
					p = recordPayload(nil, true)
				}
				if err != nil {
					if l.Failed() == nil {
						t.Fatalf("append refused by a healthy log: %v", err)
					}
					continue
				}
				if seq <= m.last {
					t.Fatalf("append got seq %d, not past %d", seq, m.last)
				}
				m.last = seq
				m.payload[seq] = p
				m.seqs = append(m.seqs, seq)
			case fuzzCommit:
				if len(m.seqs) == 0 {
					continue
				}
				seq := m.seqs[arg()%len(m.seqs)]
				if err := l.Commit(seq); err == nil {
					if m.refused[seq] {
						t.Fatalf("Commit(%d) succeeded after it had failed", seq)
					}
					m.committed[seq] = true
				} else {
					if m.committed[seq] {
						t.Fatalf("Commit(%d) failed after it had succeeded: %v", seq, err)
					}
					m.refused[seq] = true
				}
			case fuzzFault:
				ff.Inject(fuzzFaults[arg()%len(fuzzFaults)])
			case fuzzReopen:
				// A repair leaves nothing pending, so Replay — which
				// flushes first — reads the disk as it stands.
				failed := l.Failed() != nil
				if err := l.Reopen(); err == nil && failed {
					disk, snap := readDisk(t, dir)
					checkReplay(t, l, pastSnapshot(disk, snap))
					for _, seq := range m.seqs {
						if _, ok := disk[seq]; !ok && seq > snap {
							m.discarded[seq] = true
						}
					}
				}
			case fuzzSnapshot:
				var cands []uint64
				for _, s := range m.seqs {
					if m.committed[s] && s >= l.SnapshotSeq() {
						cands = append(cands, s)
					}
				}
				if len(cands) == 0 {
					continue
				}
				seq := cands[arg()%len(cands)]
				err := l.Snapshot(seq, func(w io.Writer) error {
					_, err := fmt.Fprintf(w, "state through %d", seq)
					return err
				})
				if err == nil { // a fault may fail it; the disk check below decides then
					checkSnapshotExact(t, dir, m, seq)
				}
			case fuzzCrash:
				l.flushMu.Lock()
				if l.f != nil {
					l.f.Close()
				}
				l.flushMu.Unlock()
				l, m = open()
			case fuzzSync:
				l.Sync() //nolint:errcheck // the disk check decides
			}
			checkDisk(t, dir, m)
		}
	})
}

// readDisk reads every record in dir's segments, as Open would count
// them, without changing anything: seq → payload. A torn tail is allowed
// on the newest segment only; a seq present twice, or out of order
// across segments, fails the test. snap is the newest snapshot's
// position (0 when there is none).
func readDisk(t *testing.T, dir string) (map[uint64][]byte, uint64) {
	t.Helper()
	r := &Log{dir: dir, fs: vfs.OS}
	segs, snaps, err := r.scanDir()
	if err != nil {
		t.Fatal(err)
	}
	var snap uint64
	if len(snaps) > 0 {
		snap = snaps[len(snaps)-1]
		raw, err := os.ReadFile(r.snapPath(snap))
		if err != nil || string(raw) != fmt.Sprintf("state through %d", snap) {
			t.Fatalf("snapshot %d holds %q (%v)", snap, raw, err)
		}
	}
	disk := map[uint64][]byte{}
	var prev uint64
	for i, start := range segs {
		_, _, err := r.scanSegment(start, func(seq uint64, payload []byte) error {
			if _, dup := disk[seq]; dup || seq <= prev {
				t.Fatalf("record %d in segment %d follows record %d on disk", seq, start, prev)
			}
			disk[seq], prev = bytes.Clone(payload), seq
			return nil
		})
		if err != nil && i != len(segs)-1 {
			t.Fatalf("segment %d (not the newest): %v", start, err)
		}
	}
	return disk, snap
}

// checkSnapshotExact holds a successful snapshot at seq to its
// compaction: the disk keeps no record it covers and every record past
// it — all were flushed first — that no reopen discarded.
func checkSnapshotExact(t *testing.T, dir string, m *logModel, seq uint64) {
	t.Helper()
	disk, snap := readDisk(t, dir)
	if snap != seq {
		t.Fatalf("snapshot %d succeeded, the newest on disk is %d", seq, snap)
	}
	for s := range disk {
		if s <= seq {
			t.Fatalf("record %d, covered by snapshot %d, is still on disk", s, seq)
		}
	}
	for _, s := range m.seqs {
		if _, ok := disk[s]; !ok && s > seq && !m.discarded[s] {
			t.Fatalf("record %d, past snapshot %d, is not on disk", s, seq)
		}
	}
}

// pastSnapshot is the part of disk Replay(snap) yields.
func pastSnapshot(disk map[uint64][]byte, snap uint64) map[uint64][]byte {
	out := map[uint64][]byte{}
	for seq, p := range disk {
		if seq > snap {
			out[seq] = p
		}
	}
	return out
}

// checkDisk holds the commit contract against what dir holds now.
func checkDisk(t *testing.T, dir string, m *logModel) {
	t.Helper()
	disk, snap := readDisk(t, dir)
	for seq := range m.committed {
		if seq > snap && !bytes.Equal(disk[seq], m.payload[seq]) {
			t.Fatalf("committed record %d: disk holds %q, want %q", seq, disk[seq], m.payload[seq])
		}
	}
	for seq := range m.refused {
		if _, ok := disk[seq]; ok {
			t.Fatalf("record %d, whose Commit failed, is on disk", seq)
		}
	}
	for seq, p := range disk {
		if !bytes.Equal(p, m.payload[seq]) {
			t.Fatalf("record %d on disk is %q, appended as %q", seq, p, m.payload[seq])
		}
	}
}

// checkReplay requires l.Replay from the newest snapshot to yield exactly
// want, once each, in seq order.
func checkReplay(t *testing.T, l *Log, want map[uint64][]byte) {
	t.Helper()
	got := map[uint64][]byte{}
	var prev uint64
	err := l.Replay(l.SnapshotSeq(), func(seq uint64, msgs []stream.Message, flush bool) error {
		if _, dup := got[seq]; dup || seq <= prev {
			t.Fatalf("Replay yielded record %d after %d", seq, prev)
		}
		got[seq], prev = recordPayload(msgs, flush), seq
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("Replay yielded %d records, the disk holds %d past the snapshot", len(got), len(want))
	}
	for seq, p := range want {
		if !bytes.Equal(got[seq], p) {
			t.Fatalf("Replay record %d = %q, disk holds %q", seq, got[seq], p)
		}
	}
}

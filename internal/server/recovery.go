package server

import (
	"fmt"
	"sync"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/stream"
)

// applyRecord performs the detector mutation one WAL record stands for:
// a flush marker forces the buffered partial quantum through; a batch is
// ingested message by message. Retention is the detector's own: every
// quantum ends trimmed to the cap tenantStorage set. This is the only
// definition of that mutation — the live worker (Tenant.apply) and WAL
// replay (recoverTenant) both call it, so what recovery rebuilds cannot
// drift from what was served. mu is held for the whole record: readers
// never take it (they load the epoch snapshot), and its two other takers
// cannot be waiting — maybeSnapshot runs on this goroutine between
// records, Shutdown's final snapshot after the drain. applied, when
// non-nil, runs under mu once with a batch's message count; replay
// passes nil.
func applyRecord(det *detect.Detector, mu *sync.Mutex, msgs []stream.Message, flush bool, applied func(n int)) {
	mu.Lock()
	defer mu.Unlock()
	if flush {
		det.Flush()
		return
	}
	for _, m := range msgs {
		det.IngestAll(m)
	}
	if applied != nil {
		applied(len(msgs))
	}
}

// recoverTenant builds one tenant from whatever its storage holds: the
// latest WAL snapshot (or an empty detector — a new tenant, or one with
// no WAL at all) plus a replay of the segment tail (tenantStorage.restore).
// Determinism makes the result bit-identical to the pre-crash state. It
// is also how a tenant is created: an empty WAL directory, or the
// leftovers of a pool that died mid-create, recover to what they
// describe.
func (p *Pool) recoverTenant(name string) (*Tenant, error) {
	st, err := openStorage(p.cfg, name, obs.NewTenantObs(), p.kickSupervisor)
	if err != nil {
		return nil, err
	}
	det, baseQuantum, lastSeq, err := st.restore()
	if err != nil {
		st.close() //nolint:errcheck // already failing
		return nil, fmt.Errorf("server: recover tenant %s: %w", name, err)
	}
	t := newTenant(det, st, p.sched)
	t.lastApplied.Store(lastSeq)
	t.lastSnapQuantum.Store(int64(baseQuantum))
	// If the tail replay crossed a snapshot cadence, snapshot now so a
	// crash loop cannot make recovery cost grow without bound.
	t.maybeSnapshot()
	return t, nil
}

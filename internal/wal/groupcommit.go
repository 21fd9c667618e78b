package wal

import (
	"sync"
	"time"
)

// GroupCommitter is the cross-tenant group-commit engine: one goroutine
// that, every interval, flushes the pending buffer of every log that
// appended since the last pass — one buffered write and one fsync per
// dirty log per interval, regardless of how many appends (from how many
// tenants) accumulated. Logs opt in via Options.GroupCommit; appenders
// call Log.Commit(seq) to wait for durability before acknowledging.
//
// The interval bounds acknowledgment latency (an append waits at most
// roughly one interval plus the flush itself); the win is that N
// concurrent appends across all tenants cost O(dirty logs) fsyncs
// instead of N.
type GroupCommitter struct {
	interval time.Duration

	mu      sync.Mutex
	dirty   []*Log
	stopped bool

	wake  chan struct{}
	stopc chan struct{}
	done  chan struct{}
}

// NewGroupCommitter starts a committer flushing dirty logs every
// interval. Stop it when the logs it serves are closed.
func NewGroupCommitter(interval time.Duration) *GroupCommitter {
	g := &GroupCommitter{
		interval: interval,
		wake:     make(chan struct{}, 1),
		stopc:    make(chan struct{}),
		done:     make(chan struct{}),
	}
	go g.run()
	return g
}

// noteDirty registers l for the next flush pass. Called by the log with
// its own mutex held, exactly once per empty→non-empty transition of
// its pending buffer. Returns true when the committer has stopped — the
// caller must then flush synchronously itself (it holds the lock the
// committer would need, so it cannot be called back).
func (g *GroupCommitter) noteDirty(l *Log) (stopped bool) {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return true
	}
	g.dirty = append(g.dirty, l)
	g.mu.Unlock()
	select {
	case g.wake <- struct{}{}:
	default:
	}
	return false
}

// run is the committer goroutine: wait for the first dirty log, let the
// coalescing window pass, flush everything dirty, repeat. One timer is
// reused across cycles (Go 1.23+ timer semantics make Reset safe after
// a bare Stop) — time.After would allocate a timer per flush, hundreds
// per second at millisecond intervals.
func (g *GroupCommitter) run() {
	defer close(g.done)
	timer := time.NewTimer(g.interval)
	timer.Stop()
	defer timer.Stop()
	for {
		select {
		case <-g.stopc:
			g.flushAll()
			return
		case <-g.wake:
		}
		timer.Reset(g.interval)
		select {
		case <-g.stopc:
			g.flushAll()
			return
		case <-timer.C:
		}
		g.flushAll()
	}
}

// flushAll flushes every log registered dirty since the last pass.
// Different logs are different files, so their writes and fsyncs
// overlap in parallel — the coalescing (one fsync per log per pass, no
// matter how many appends) is what group commit is about, not
// serialising the disks behind one another.
func (g *GroupCommitter) flushAll() {
	g.mu.Lock()
	dirty := g.dirty
	g.dirty = nil
	g.mu.Unlock()
	if len(dirty) == 1 {
		dirty[0].flushCommit()
		return
	}
	var wg sync.WaitGroup
	for _, l := range dirty {
		wg.Add(1)
		go func(l *Log) {
			defer wg.Done()
			l.flushCommit()
		}(l)
	}
	wg.Wait()
}

// Stop flushes outstanding work and terminates the committer. After
// Stop, appends on attached logs degrade to synchronous flushes — no
// record can be stranded — but the right order is: close the logs,
// then Stop. Safe to call more than once; nil-safe.
func (g *GroupCommitter) Stop() {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		<-g.done
		return
	}
	g.stopped = true
	g.mu.Unlock()
	close(g.stopc)
	<-g.done
}

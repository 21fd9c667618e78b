package server

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// scheduler is the pool's shared worker engine: a fixed-size set of
// goroutines round-robinning runnable tenants. It replaces the
// goroutine-per-tenant design, which stopped scaling past a few
// thousand tenants (stacks, scheduler pressure) even though almost all
// of them are idle at any instant.
//
// Fairness and ordering come from two invariants:
//
//   - A tenant appears in the runnable queue at most once (the
//     Tenant.scheduled flag), so exactly one worker applies a given
//     tenant's batches at a time — per-tenant batch order is the WAL
//     append order, exactly as with the dedicated goroutine.
//   - A worker applies ONE batch per turn and then requeues the tenant
//     at the tail, so a hot tenant with a deep backlog advances one
//     batch per cycle while every other runnable tenant gets its turn
//     in between — one tenant cannot starve the rest.
//
// The first invariant also sizes the runnable queue: with a slot for
// every tenant the pool can hold, a send never blocks. The queue is
// never closed — a worker wedged past a timed-out drain may still
// requeue its tenant after stop — so workers leave on the stop channel.
type scheduler struct {
	runq  chan *Tenant
	stopc chan struct{}
	wg    sync.WaitGroup

	// onBatch, when set (tests only), observes every applied batch in
	// global application order.
	onBatch atomic.Pointer[func(tenant string)]
}

// newScheduler starts a scheduler with the given number of workers
// (≤ 0 selects GOMAXPROCS — one worker per core the runtime will use)
// over a runnable queue with room for tenants tenants.
func newScheduler(workers, tenants int) *scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &scheduler{runq: make(chan *Tenant, tenants), stopc: make(chan struct{})}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.run()
	}
	return s
}

// submit marks t runnable, queuing it at the tail. Callers guarantee the
// at-most-once invariant via Tenant.scheduled, held under the tenant's
// queue lock; the send cannot block, since every tenant has a slot.
func (s *scheduler) submit(t *Tenant) { s.runq <- t }

// run is one worker: take a runnable tenant, apply one batch, repeat.
func (s *scheduler) run() {
	defer s.wg.Done()
	for {
		select {
		case t := <-s.runq:
			t.runOne()
			if hook := s.onBatch.Load(); hook != nil {
				(*hook)(t.name)
			}
		case <-s.stopc:
			return
		}
	}
}

// stop shuts the workers down. Callers must have drained every tenant
// first (the runnable queue empties and stays empty). When wait is set,
// stop blocks until every worker has exited; pass false when a tenant
// failed to drain in time — one of the workers may be wedged inside its
// apply step, and the pool's shutdown must not hang behind it.
func (s *scheduler) stop(wait bool) {
	close(s.stopc)
	if wait {
		s.wg.Wait()
	}
}

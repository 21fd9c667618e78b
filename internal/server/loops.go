package server

import (
	"sync"
	"time"
)

// tenantLoop is a stoppable background walk over the pool's tenants —
// what the archive compactor and the degradation supervisor both are.
// Every interval, or at once when kicked, it visits each published
// tenant in name order. A nil *tenantLoop is a loop that never started:
// kick and halt are no-ops on it.
type tenantLoop struct {
	stop chan struct{}
	wake chan struct{}
	done chan struct{}
	once sync.Once
}

func (p *Pool) startLoop(every time.Duration, visit func(*Tenant)) *tenantLoop {
	l := &tenantLoop{stop: make(chan struct{}), wake: make(chan struct{}, 1), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-l.wake:
			case <-tick.C:
			}
			for _, t := range p.tenantsSorted() {
				select {
				case <-l.stop:
					return
				default:
				}
				visit(t)
			}
		}
	}()
	return l
}

// kick starts a pass now instead of at the next tick. Non-blocking; a
// kick while one is pending coalesces.
func (l *tenantLoop) kick() {
	if l == nil {
		return
	}
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// halt stops the loop and waits for the visit in flight to finish;
// idempotent.
func (l *tenantLoop) halt() {
	if l == nil {
		return
	}
	l.once.Do(func() { close(l.stop) })
	<-l.done
}

// startLoops starts the pool's two background loops, once every tenant
// on disk is restored. The archive compactor takes at most one
// compaction step per tenant per tick, which bounds the IO burst a tick
// can cause. The degradation supervisor, on its probe cadence or at once
// when a storage failure kicks it, reopens fail-stopped WALs and clears
// degraded mode once a write probe proves the device recovered; it only
// has work when a WAL exists. One goroutine each for the whole pool —
// degradation is rare and the probe is cheap, so per-tenant probers would
// only multiply shutdown edges.
func (p *Pool) startLoops() {
	if p.cfg.ArchiveCompactInterval > 0 {
		p.compactor = p.startLoop(p.cfg.ArchiveCompactInterval, func(t *Tenant) { t.storage.compactStep() })
	}
	if p.cfg.WALDir != "" {
		p.supervisor = p.startLoop(p.cfg.degradedProbeInterval, (*Tenant).probeStorage)
	}
}

// stopLoops halts both loops, before anything closes: a probe's reopen
// racing a WAL Close would resurrect file handles Shutdown just
// released, and a compaction step racing an archive Close would splice
// segments into a log whose files are gone.
func (p *Pool) stopLoops() {
	p.supervisor.halt()
	p.compactor.halt()
}

// kickSupervisor nudges the supervisor to probe now instead of waiting
// out the cadence — called when a storage failure flips a tenant
// degraded, so short outages recover on the next probe, not the next
// tick.
func (p *Pool) kickSupervisor() { p.supervisor.kick() }

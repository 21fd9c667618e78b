// Package server is the HTTP/JSON serving subsystem: a multi-tenant pool
// of streaming detectors behind ingest, query, and SSE push endpoints,
// with write-ahead-log persistence so restarts — clean or kill -9 —
// resume the stream bit-identically. See docs/ARCHITECTURE.md for the
// design.
package server

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"sync"
)

// Errors surfaced to handlers (mapped onto HTTP status codes there).
var (
	ErrQueueFull     = errors.New("server: ingest queue full")
	ErrBatchTooLarge = errors.New("server: batch exceeds the queue's message bound; split it")
	ErrClosed        = errors.New("server: pool shut down")
	ErrBadTenant     = errors.New("server: invalid tenant name")
	ErrNoTenant      = errors.New("server: unknown tenant")
	ErrMaxTenants    = errors.New("server: tenant limit reached")
)

// tenantNameRE keeps tenant names URL- and filename-safe.
var tenantNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// Pool manages the tenants of one serving process.
type Pool struct {
	cfg   PoolConfig
	sched *scheduler // shared worker pool applying every tenant's batches

	mu      sync.RWMutex
	tenants map[string]*Tenant
	// creating holds an in-flight latch per tenant name being built
	// outside the lock (WAL recovery can be slow); the channel closes
	// when the build finishes, successfully or not.
	creating map[string]chan struct{}
	closed   bool // refuses new tenants (set by BeginShutdown)

	// shutdownOnce guards the drain+snapshot pass; shutdownDone is
	// closed when it finishes so concurrent Shutdown callers wait for
	// completion instead of returning success early.
	shutdownOnce sync.Once
	shutdownDone chan struct{}
	shutdownErr  error

	// supervisor is the degradation supervisor (supervisor.go), nil
	// without a WAL.
	supervisor *supervisor
}

// NewPool validates cfg, builds a pool and restores every tenant found
// under WALDir by WAL recovery (snapshot + tail replay).
func NewPool(cfg PoolConfig) (*Pool, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid pool configuration:\n%w", err)
	}
	cfg = cfg.withDefaults()
	var recovered []string
	if cfg.WALDir != "" {
		if err := cfg.FS.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
		entries, err := cfg.FS.ReadDir(cfg.WALDir)
		if err != nil {
			return nil, fmt.Errorf("server: list wal dir: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() && tenantNameRE.MatchString(e.Name()) {
				recovered = append(recovered, e.Name())
			}
		}
	}
	p := &Pool{
		cfg: cfg,
		// Recovery does not count against MaxTenants, so the runnable
		// queue needs a slot for every recovered tenant on top.
		sched:        newScheduler(cfg.Workers, cfg.MaxTenants+len(recovered)),
		tenants:      make(map[string]*Tenant),
		creating:     make(map[string]chan struct{}),
		shutdownDone: make(chan struct{}),
	}
	for _, name := range recovered {
		t, err := p.recoverTenant(name)
		if err != nil {
			// Don't leak scheduler workers or tenants already restored.
			// (The supervisor starts only after restore succeeds.)
			//repro:order-insensitive independent per-tenant shutdowns during abandoned startup; order is immaterial
			for _, t := range p.tenants {
				t.shutdown(context.Background()) //nolint:errcheck // empty queues drain instantly
			}
			p.sched.stop(true)
			return nil, err
		}
		p.tenants[name] = t
	}
	p.startSupervisor()
	return p, nil
}

// Tenant returns an existing tenant.
func (p *Pool) Tenant(name string) (*Tenant, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	t, ok := p.tenants[name]
	return t, ok
}

// TenantCount returns the number of tenants without copying names.
func (p *Pool) TenantCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.tenants)
}

// CanCreate cheaply pre-checks whether a new tenant could be admitted
// right now. Racy by nature (the answer can change before GetOrCreate),
// but lets handlers shed guaranteed-rejected ingest before paying to
// decode a large body; GetOrCreate remains the authoritative gate.
func (p *Pool) CanCreate() error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	if len(p.tenants) >= p.cfg.MaxTenants {
		return ErrMaxTenants
	}
	return nil
}

// GetOrCreate returns the named tenant, creating it with the pool's
// detector configuration on first use. The build itself (recoverTenant)
// — which with a WAL configured may mean recovering leftovers of a pool
// that died mid-create, snapshot load and tail replay included — runs
// outside the pool lock behind a per-name latch, so one tenant's
// recovery never freezes every other tenant's requests.
func (p *Pool) GetOrCreate(name string) (*Tenant, error) {
	if !tenantNameRE.MatchString(name) {
		return nil, ErrBadTenant
	}
	for {
		p.mu.RLock()
		t, ok := p.tenants[name]
		closed := p.closed
		p.mu.RUnlock()
		if ok {
			return t, nil
		}
		if closed {
			return nil, ErrClosed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClosed
		}
		if t, ok := p.tenants[name]; ok {
			p.mu.Unlock()
			return t, nil
		}
		if wait, busy := p.creating[name]; busy {
			// Another request is already building this tenant: wait for
			// it to finish either way, then retry the lookup.
			p.mu.Unlock()
			<-wait
			continue
		}
		if len(p.tenants)+len(p.creating) >= p.cfg.MaxTenants {
			p.mu.Unlock()
			return nil, ErrMaxTenants
		}
		done := make(chan struct{})
		p.creating[name] = done
		p.mu.Unlock()

		t, err := p.recoverTenant(name)

		p.mu.Lock()
		delete(p.creating, name)
		close(done)
		if err != nil {
			p.mu.Unlock()
			return nil, err
		}
		if p.closed {
			// Shutdown began while we were building: the new tenant was
			// never published, so BeginShutdown could not reach it.
			p.mu.Unlock()
			t.shutdown(context.Background()) //nolint:errcheck // empty queue drains instantly
			t.storage.close()                //nolint:errcheck // never served; nothing to lose
			return nil, ErrClosed
		}
		p.tenants[name] = t
		p.mu.Unlock()
		return t, nil
	}
}

// Names returns the tenant names, sorted.
func (p *Pool) Names() []string {
	tenants := p.tenantsSorted()
	names := make([]string, len(tenants))
	for i, t := range tenants {
		names[i] = t.name
	}
	return names
}

// tenantsSorted snapshots the tenant list under the read lock,
// name-sorted.
func (p *Pool) tenantsSorted() []*Tenant {
	p.mu.RLock()
	tenants := make([]*Tenant, 0, len(p.tenants))
	for _, t := range p.tenants {
		tenants = append(tenants, t)
	}
	p.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	return tenants
}

// BeginShutdown makes the pool refuse new tenants and ends every
// tenant's SSE stream, without draining anything yet. Server.Shutdown
// calls it before draining HTTP: http.Server.Shutdown waits for
// connections to go idle, and an SSE subscriber never goes idle on its
// own — without this the drain (and therefore the final snapshot) stalls
// for the whole grace period behind a single connected client. Refusing new
// tenants first closes the race where a tenant created mid-drain gets a
// fresh broker that a late subscriber could hang the drain on.
// Idempotent; returns the tenants present at shutdown, name-sorted.
func (p *Pool) BeginShutdown() []*Tenant {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	// Once closed is set no tenant is ever published (GetOrCreate
	// re-checks it under p.mu), so the set read here is final.
	tenants := p.tenantsSorted()
	for _, t := range tenants {
		t.broker.close()
	}
	return tenants
}

// Shutdown stops ingest on every tenant, drains their queues (bounded by
// ctx) and takes each through the storage owner's snapshot path one
// last time, so a restart replays nothing. The first error is
// returned, but every tenant is still processed.
// Concurrent calls block until the shutdown pass completes (bounded by
// their own ctx) rather than reporting success while it is in flight.
func (p *Pool) Shutdown(ctx context.Context) error {
	p.shutdownOnce.Do(func() {
		defer close(p.shutdownDone)
		p.supervisor.halt()
		tenants := p.BeginShutdown()
		var first error
		drainFailed := false
		for _, t := range tenants {
			if derr := t.shutdown(ctx); derr != nil {
				drainFailed = true
				if first == nil {
					first = derr
				}
				// The worker may still be applying a batch; touching the
				// WAL now could pair partially-applied state with a
				// pre-batch log position. Leave the log as-is — that is
				// exactly the crash case recovery replays correctly.
				continue
			}
			t.mu.Lock()
			err := t.storage.snapshot(t.lastApplied.Load(), t.det.Save)
			t.mu.Unlock()
			if cerr := t.storage.close(); err == nil {
				err = cerr
			}
			if err != nil && first == nil {
				first = err
			}
		}
		// Every tenant is closed, so the runnable queue stays empty; stop
		// the shared workers. If a drain timed out, a worker may be wedged
		// inside its apply step — don't wait on it, exactly as the old
		// per-tenant goroutine was abandoned in that case.
		p.sched.stop(!drainFailed)
		p.shutdownErr = first
	})
	// Completed-shutdown fast path first: with both channels ready the
	// select below picks randomly, which would report a spurious
	// in-progress error to a caller arriving with an expired ctx.
	select {
	case <-p.shutdownDone:
		return p.shutdownErr
	default:
	}
	select {
	case <-p.shutdownDone:
		return p.shutdownErr
	case <-ctx.Done():
		return fmt.Errorf("server: shutdown in progress: %w", ctx.Err())
	}
}

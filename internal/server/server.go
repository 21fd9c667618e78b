package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Server ties the HTTP listener to the detector pool and owns graceful
// shutdown: stop accepting, drain in-flight requests, drain ingest
// queues, snapshot every tenant.
type Server struct {
	Pool *Pool
	HTTP *http.Server

	grace time.Duration
}

// New validates cfg, then builds a server (and its pool, recovering any
// tenants on disk).
func New(cfg Config) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("server: invalid configuration:\n%w", err)
	}
	cfg = cfg.WithDefaults()
	pool, err := NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	return &Server{
		Pool: pool,
		HTTP: &http.Server{
			Addr:    cfg.Addr,
			Handler: NewHandler(pool),
			// Slowloris defence. No ReadTimeout (large ingest bodies) and
			// no WriteTimeout (SSE streams are long-lived by design).
			ReadHeaderTimeout: 10 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		grace: cfg.ShutdownGrace,
	}, nil
}

// ListenAndServe serves until Shutdown; the sentinel
// http.ErrServerClosed is filtered out.
func (s *Server) ListenAndServe() error {
	err := s.HTTP.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown gracefully stops the HTTP side, then drains and snapshots
// the pool. Bounded by the configured grace period (or ctx, whichever
// ends first). SSE streams are ended first — they never go idle on
// their own, and http.Server.Shutdown waits for idle connections.
func (s *Server) Shutdown(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, s.grace)
	defer cancel()
	s.Pool.BeginShutdown()
	httpErr := s.HTTP.Shutdown(ctx)
	poolErr := s.Pool.Shutdown(ctx)
	if poolErr != nil {
		return poolErr
	}
	return httpErr
}

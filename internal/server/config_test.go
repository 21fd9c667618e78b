package server

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestConfigValidate: one case per rule. Each mutation of an otherwise
// valid configuration must be rejected with a message naming the
// setting (by flag where it has one, by field where it does not).
func TestConfigValidate(t *testing.T) {
	valid := func() Config {
		return Config{Pool: PoolConfig{Detector: testDetectConfig()}}
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   []string // substrings of the one violation
	}{
		{"delta", func(c *Config) { c.Pool.Detector.Delta = -1 }, []string{"-delta"}},
		{"qtime", func(c *Config) { c.Pool.Detector.QuantumTime = -1 }, []string{"-qtime"}},
		{"tau", func(c *Config) { c.Pool.Detector.AKG.Tau = -1 }, []string{"-tau"}},
		{"beta high", func(c *Config) { c.Pool.Detector.AKG.Beta = 1.5 }, []string{"-beta"}},
		{"beta negative", func(c *Config) { c.Pool.Detector.AKG.Beta = -0.1 }, []string{"-beta"}},
		{"beta NaN", func(c *Config) { c.Pool.Detector.AKG.Beta = math.NaN() }, []string{"-beta"}},
		{"w", func(c *Config) { c.Pool.Detector.AKG.Window = -1 }, []string{"-w)"}},
		{"queue", func(c *Config) { c.Pool.QueueDepth = -1 }, []string{"-queue)"}},
		{"queue-msgs", func(c *Config) { c.Pool.QueueMessages = -1 }, []string{"-queue-msgs"}},
		{"max-tenants", func(c *Config) { c.Pool.MaxTenants = -1 }, []string{"-max-tenants"}},
		{"retain", func(c *Config) { c.Pool.RetainEvents = -1 }, []string{"-retain"}},
		{"workers", func(c *Config) { c.Pool.Workers = -1 }, []string{"-workers"}},
		{"rate-limit", func(c *Config) { c.Pool.RateLimit = -1 }, []string{"-rate-limit)"}},
		{"rate-limit NaN", func(c *Config) { c.Pool.RateLimit = math.NaN() }, []string{"-rate-limit)"}},
		{"rate-burst", func(c *Config) { c.Pool.RateLimit, c.Pool.RateBurst = 1, -1 }, []string{"-rate-burst)"}},
		{"admission-frac", func(c *Config) { c.Pool.AdmissionFrac = 1.01 }, []string{"-admission-frac"}},
		{"grace", func(c *Config) { c.ShutdownGrace = -time.Second }, []string{"-grace"}},
		{"snapshot-every", func(c *Config) { c.Pool.SnapshotEvery = -1 }, []string{"-snapshot-every"}},
		// A setting accepted and then ignored is a misconfiguration: the
		// message names both halves.
		{"archive needs wal", func(c *Config) { c.Pool.ArchiveDir = "a" }, []string{"-archive-dir", "-wal-dir"}},
		{"burst needs limit", func(c *Config) { c.Pool.RateBurst = 16 }, []string{"-rate-burst", "-rate-limit"}},
	}
	for _, tc := range cases {
		c := valid()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if n := strings.Count(err.Error(), "\n") + 1; n != 1 {
			t.Errorf("%s: %d violations, want 1: %v", tc.name, n, err)
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: message %q does not name %s", tc.name, err, want)
			}
		}
		if _, nerr := New(c); nerr == nil {
			t.Errorf("%s: New accepted what Validate rejects", tc.name)
		}
	}

	// Every violation is reported, not just the first.
	c := valid()
	c.ShutdownGrace = -1
	c.Pool.QueueDepth = -1
	c.Pool.Detector.AKG.Beta = 2
	c.Pool.RateBurst = 4
	err := c.Validate()
	if err == nil {
		t.Fatal("four violations accepted")
	}
	for _, want := range []string{"-grace", "-queue)", "-beta", "-rate-burst"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q is missing %s", err, want)
		}
	}
	if n := strings.Count(err.Error(), "\n") + 1; n != 4 {
		t.Errorf("%d violations reported, want 4: %v", n, err)
	}

	// Zero literals select defaults and are valid, as are the paired
	// settings together; the pairing rules do not fire on a 0 that
	// spells "off".
	for name, ok := range map[string]error{
		"Config{}":             Config{}.Validate(),
		"PoolConfig{Detector}": PoolConfig{Detector: testDetectConfig()}.Validate(),
		"resolved zero":        Config{}.WithDefaults().Validate(),
		"pairs together": Config{Pool: PoolConfig{
			WALDir: "w", ArchiveDir: "a",
			RateLimit: 10, RateBurst: 20,
		}}.Validate(),
	} {
		if ok != nil {
			t.Errorf("%s rejected: %v", name, ok)
		}
	}
	// The archive ⇒ WAL rule binds bare pools too: NewPool has no
	// configuration in which evictions are archived under ordinals a
	// restart would reuse.
	if err := (PoolConfig{ArchiveDir: "a", RetainEvents: 4}).Validate(); err == nil || !strings.Contains(err.Error(), "-wal-dir") {
		t.Errorf("bare pool with an archive and no WAL: err = %v, want the archive-needs-WAL violation", err)
	}
	if _, err := NewPool(PoolConfig{RateBurst: 4}); err == nil {
		t.Error("NewPool accepted a configuration PoolConfig.Validate rejects")
	}
}

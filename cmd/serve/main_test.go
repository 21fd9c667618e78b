package main

import (
	"flag"
	"io"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/server"
)

// serveFlags is the command line. Adding or removing a flag means
// editing this list — and docs/OPERATIONS.md, which the test reads.
var serveFlags = []string{
	"addr", "grace", "pprof-addr", "wal-dir", "archive-dir",
	"delta", "qtime", "tau", "beta", "w", "retain", "snapshot-every",
	"wal-group-commit-interval", "archive-compact-interval",
	"queue", "queue-msgs", "workers", "rate-limit", "rate-burst",
	"admission-frac", "max-tenants",
}

func newFlagSet() (*flag.FlagSet, *server.Config) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _ := bindFlags(fs)
	return fs, cfg
}

// TestFlagSurface pins the flag set, that running with no flags is
// running server.Config{}, and that every flag is documented.
func TestFlagSurface(t *testing.T) {
	fs, cfg := newFlagSet()
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := slices.Clone(serveFlags)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("registered flags\n got %v\nwant %v", got, want)
	}

	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if zero := (server.Config{}).WithDefaults(); !reflect.DeepEqual(*cfg, zero) {
		t.Fatalf("no flags resolved to\n%+v\nserver.Config{} resolves to\n%+v", *cfg, zero)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("the default configuration is invalid: %v", err)
	}

	doc, err := os.ReadFile("../../docs/OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range serveFlags {
		if !strings.Contains(string(doc), "`-"+name+"`") {
			t.Errorf("docs/OPERATIONS.md does not mention `-%s`", name)
		}
	}
}

// TestFlagsBindAndValidate: a flag's value lands in its field, and
// server.Config.Validate names a rejected setting by a flag that
// exists — the two files cannot drift apart unnoticed.
func TestFlagsBindAndValidate(t *testing.T) {
	fs, cfg := newFlagSet()
	if err := fs.Parse([]string{"-queue", "7", "-beta", "0.4", "-wal-dir", "/w", "-grace", "5s",
		"-archive-compact-interval", "250ms", "-wal-group-commit-interval", "2ms"}); err != nil {
		t.Fatal(err)
	}
	if cfg.Pool.QueueDepth != 7 || cfg.Pool.Detector.AKG.Beta != 0.4 || cfg.Pool.WALDir != "/w" || cfg.ShutdownGrace.Seconds() != 5 {
		t.Fatalf("flags did not bind: %+v", *cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("a valid command line with the inert -archive-compact-interval and -wal-group-commit-interval was refused: %v", err)
	}

	fs, cfg = newFlagSet()
	args := []string{"-archive-dir", "/a", "-rate-burst", "8"}
	for _, name := range []string{"delta", "qtime", "tau", "w", "retain", "snapshot-every", "queue",
		"queue-msgs", "workers", "max-tenants", "rate-limit", "admission-frac", "beta", "grace"} {
		neg := "-1"
		if name == "grace" {
			neg = "-1s"
		}
		args = append(args, "-"+name, neg)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("a command line of nonsense validated")
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile(`\(-([a-z-]+)\)`).FindAllStringSubmatch(err.Error(), -1) {
		if fs.Lookup(m[1]) == nil {
			t.Errorf("Validate names -%s, which is not a flag", m[1])
		}
		named[m[1]] = true
	}
	// Every flag with a range or a dependency was named at least once.
	for _, name := range serveFlags {
		switch name {
		case "addr", "pprof-addr": // free-form strings
		case "archive-compact-interval", "wal-group-commit-interval": // accepted, no effect
		default:
			if !named[name] {
				t.Errorf("-%s was given a bad value (or left dangling) and Validate did not name it:\n%v", name, err)
			}
		}
	}
}

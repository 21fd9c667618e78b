package main

import (
	"bytes"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/vfs"
)

// buildServe compiles cmd/serve once into .bench_build/ and returns the
// binary's path and the build's wall time.
func buildServe(root string) (string, time.Duration, error) {
	out := filepath.Join(root, ".bench_build", "serve")
	cmd := exec.Command("go", "build", "-o", out, "./cmd/serve")
	cmd.Dir = root
	cmd.Env = os.Environ()
	if os.Getenv("GOCACHE") == "" {
		cmd.Env = append(cmd.Env, "GOCACHE="+filepath.Join(root, ".bench_build", "gocache"))
	}
	t0 := time.Now()
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/serve: %v\n%s", err, msg)
	}
	return out, time.Since(t0), nil
}

// running is the set of started server processes, so that a termination
// signal to the harness takes them down with it instead of orphaning them.
var running = struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}{procs: map[*serverProc]struct{}{}}

func track(s *serverProc, on bool) {
	running.Lock()
	defer running.Unlock()
	if on {
		running.procs[s] = struct{}{}
	} else {
		delete(running.procs, s)
	}
}

// killRunning is the signal handler's clean-up: kill -9 every server the
// harness still has running.
func killRunning() {
	running.Lock()
	defer running.Unlock()
	for s := range running.procs {
		s.cmd.Process.Kill() //nolint:errcheck // best effort on the way out
	}
}

// serverProc is one cmd/serve process under test, driven only through
// the flags and endpoints the ROADMAP's simplifications keep.
type serverProc struct {
	bin, dir, addr string
	args           []string
	cmd            *exec.Cmd
	logf           vfs.File
}

// newServer prepares (without starting) a server over dir/wal and
// dir/arch with the workload's flags.
func newServer(bin, dir string, w workload) (*serverProc, error) {
	// A free port: bind :0, read it back, release it for the server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	args := []string{
		"-addr", addr,
		"-wal-dir", filepath.Join(dir, "wal"),
		"-wal-group-commit-interval", groupCommit.String(),
		"-snapshot-every", strconv.Itoa(w.snapshotEvery),
		"-delta", strconv.Itoa(delta),
		"-tau", strconv.Itoa(tau),
		"-beta", strconv.FormatFloat(beta, 'g', -1, 64),
		"-w", strconv.Itoa(window),
	}
	if w.retain > 0 {
		args = append(args,
			"-archive-dir", filepath.Join(dir, "arch"),
			"-retain", strconv.Itoa(w.retain),
			"-archive-compact-interval", w.compact.String())
	}
	return &serverProc{bin: bin, dir: dir, addr: addr, args: args}, nil
}

func (s *serverProc) url(path string) string { return "http://" + s.addr + path }

// start launches the process and returns once /readyz answers 200.
func (s *serverProc) start() error {
	logf, err := vfs.OS.OpenFile(filepath.Join(s.dir, "serve.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	s.logf = logf
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	track(s, true)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(s.url("/readyz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.kill()
	return fmt.Errorf("server at %s never became ready; see %s", s.addr, logf.Name())
}

// stop drains the server (SIGTERM) and waits for it to exit.
func (s *serverProc) stop() error {
	if s.cmd == nil {
		return nil
	}
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone → Wait reports it
	err := s.cmd.Wait()
	track(s, false)
	s.cmd = nil
	s.logf.Close()
	return err
}

// kill is kill -9: no drain, no flush.
func (s *serverProc) kill() {
	if s.cmd == nil {
		return
	}
	s.cmd.Process.Kill() //nolint:errcheck // already gone → nothing to kill
	s.cmd.Wait()         //nolint:errcheck // exit status of a killed process is expected
	track(s, false)
	s.cmd = nil
	s.logf.Close()
}

// cpuSeconds returns the process's cumulative on-CPU time: the sum over
// its threads of /proc/<pid>/task/<tid>/schedstat, which counts in
// nanoseconds. /proc/<pid>/stat counts in 10 ms ticks — too coarse for a
// chunk a tenth of a second long — and is the fallback on a kernel that
// keeps no schedstat.
func (s *serverProc) cpuSeconds() (float64, error) {
	pid := s.cmd.Process.Pid
	tasks := fmt.Sprintf("/proc/%d/task", pid)
	entries, err := os.ReadDir(tasks)
	if err != nil {
		return 0, err
	}
	var ns uint64
	read := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(tasks, e.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited after the listing, or no schedstat
		}
		n, err := parseSchedstat(data)
		if err != nil {
			return 0, err
		}
		ns += n
		read++
	}
	if read > 0 {
		return float64(ns) / 1e9, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(data)
}

// parseSchedstat extracts a task's time on a CPU, the first field of its
// schedstat line, in nanoseconds.
func parseSchedstat(data []byte) (uint64, error) {
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	n, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: bad run time %q", f[0])
	}
	return n, nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times;
// it is 100 on every Linux architecture Go supports.
const clockTick = 100

// parseProcStatCPU extracts utime+stime (fields 14 and 15) in seconds.
// The comm field may hold spaces and parentheses, so fields are counted
// from the last ')'.
func parseProcStatCPU(data []byte) (float64, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no comm field")
	}
	f := strings.Fields(string(data[i+1:]))
	// f[0] is field 3 (state), so fields 14 and 15 are f[11] and f[12].
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm", len(f))
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(ut+st) / clockTick, nil
}

// rssPeakMiB returns the process's peak resident set (VmHWM).
func (s *serverProc) rssPeakMiB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

func parseVmHWM(data []byte) (float64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseUint(f[0], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("proc status: bad VmHWM %q", f[0])
				}
				return float64(kb) / 1024, nil
			}
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	if os.IsNotExist(err) {
		return 0, nil
	}
	return total, err
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"trajsim/internal/stream"
)

// server is one trajserve subprocess on a loopback port with its own
// data directory.
type server struct {
	cmd  *exec.Cmd
	base string
	dir  string
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with flags on a fresh port and data directory
// and returns once /healthz answers, or with the process stopped.
func startServer(bin, dataDir string, flags []string) (*server, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(dataDir + ".log")
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-data-dir", dataDir}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(runtime.NumCPU()))
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark dies, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start trajserve: %w", err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dataDir, log: logf, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitReady(30 * time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitReady polls /healthz on its own short-lived connection.
func (s *server) waitReady(limit time.Duration) error {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("trajserve exited during start-up: %v (log: %s)", err, s.log.Name())
		default:
		}
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("trajserve not ready after %v", limit)
}

// stop shuts the server down gracefully (SIGTERM flushes live sessions
// into the store) and waits for the process to end, killing it if the
// drain takes too long.
func (s *server) stop() error {
	defer s.log.Close()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	select {
	case err := <-s.done:
		s.done <- err
		return nil
	case <-time.After(60 * time.Second):
		s.cmd.Process.Kill()
		return fmt.Errorf("%v after kill: trajserve did not stop within 60s", <-s.done)
	}
}

// cpuTime returns the process's user+system CPU time.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100
	// on Linux).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat: %q", rest)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat: %q", rest)
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS returns the process's VmHWM in bytes.
func (s *server) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stats fetches /stats over c.
func (s *server) stats(c *conn) (stream.Stats, error) {
	var st stream.Stats
	b, code, err := c.get("/stats")
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d", code)
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	if st.Store == nil {
		return st, errors.New("/stats: no store counters")
	}
	return st, nil
}

// waitDrained polls /stats until the sink queue is empty, so a flush
// that follows finds every batch already appended.
func (s *server) waitDrained(c *conn) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := s.stats(c)
		if err != nil {
			return err
		}
		if st.SinkQueued == 0 {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("sink queue did not drain within 30s")
}

// removeBounded deletes dir file by file and gives up, leaving the
// rest, once limit has passed: on some hosts unlinking a synced file
// costs a third of a second, and teardown must not eat the run's time.
func removeBounded(dir string, limit time.Duration) {
	deadline := time.Now().Add(limit)
	var files, dirs []string
	filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			dirs = append(dirs, p)
		} else {
			files = append(files, p)
		}
		return nil
	})
	for _, f := range files {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "teardown: left %s (deletion budget %v spent)\n", dir, limit)
			return
		}
		os.Remove(f)
	}
	for i := len(dirs) - 1; i >= 0; i-- {
		os.Remove(dirs[i])
	}
	os.Remove(dir + ".log")
}

// cpuSteal returns the host's total and stolen CPU time so far, in clock
// ticks: stolen time is when the hypervisor ran another guest on this
// machine's CPUs, which no change to the program can move.
func cpuSteal() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

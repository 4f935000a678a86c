package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one grophecyd process started for a run.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once the process has been waited for
	err  error         // Wait's result, valid after done
}

// addrWriter captures grophecyd's one stdout line, which names the
// address it listens on. Only exec's copying goroutine calls Write.
type addrWriter struct {
	buf  []byte
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := strings.IndexByte(string(w.buf), '\n'); i >= 0 {
		line := string(w.buf[:i])
		if j := strings.Index(line, "http://"); j >= 0 {
			w.addr <- strings.TrimSpace(line[j:])
			w.sent = true
		}
	}
	return len(p), nil
}

// startDaemon runs bin with default flags apart from the listen
// address, logging to a file in dir, and returns once it listens.
func startDaemon(bin, dir string) (*daemon, error) {
	logf, err := os.Create(filepath.Join(dir, "grophecyd.log"))
	if err != nil {
		return nil, err
	}
	aw := &addrWriter{addr: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	cmd.Stderr = logf
	// The daemon must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	select {
	case d.base = <-aw.addr:
		return d, nil
	case <-d.done:
		logf.Close()
		return nil, fmt.Errorf("grophecyd exited before listening: %v (log: %s)", d.err, logf.Name())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("grophecyd did not report a listen address within 30s")
	}
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("grophecyd exited while starting: %v", d.err)
		case <-time.After(time.Millisecond):
		}
	}
	return errors.New("grophecyd not ready within 30s")
}

// peakRSSMB reads the daemon's VmHWM (peak resident set) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, escalates to SIGKILL after the daemon's own
// drain timeout, and returns once the process has exited. The log file
// is closed and removed.
func (d *daemon) stop() {
	select {
	case <-d.done:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is the goal
		select {
		case <-d.done:
		case <-time.After(15 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.done
		}
	}
	d.log.Close()
	os.Remove(d.log.Name())
}

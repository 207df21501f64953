package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// drainTimeout is rhserved's shipped -drain-timeout; a server that has
// not exited this long after SIGTERM fails the run.
const drainTimeout = 60 * time.Second

// daemon is one running rhserved child.
type daemon struct {
	cmd  *exec.Cmd
	base string     // http://host:port
	exit chan error // receives cmd.Wait's result once
	// logs holds the head of the child's stderr; read it only after
	// receiving from exit, which orders it after the last write.
	logs *strings.Builder
}

// startDaemon execs rhserved with its shipped defaults plus a fresh
// store and an ephemeral port, and returns once GET /healthz first
// answers 200, together with the time that took.
func startDaemon(ctx context.Context, bin, storeDir string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-store", storeDir, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("exec rhserved: %w", err)
	}
	d := &daemon{cmd: cmd, exit: make(chan error, 1), logs: &strings.Builder{}}
	addr := make(chan string, 1)
	scanned := make(chan struct{})
	go func() {
		defer close(scanned)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if a, ok := strings.CutPrefix(line, "rhserved: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
			// Keep the head of the log for error reports; the rest
			// is drained so the child never blocks on a full pipe.
			if d.logs.Len() < 4096 {
				d.logs.WriteString(line + "\n")
			}
		}
	}()
	go func() {
		<-scanned
		d.exit <- cmd.Wait()
	}()

	select {
	case a := <-addr:
		d.base = "http://" + a
	case err := <-d.exit:
		return nil, 0, fmt.Errorf("rhserved exited before listening (%v): %s", err, d.logs.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, 0, errors.New("rhserved did not report its address within 30s")
	case <-ctx.Done():
		d.kill()
		return nil, 0, ctx.Err()
	}

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("rhserved /healthz never answered 200 (last error %v)", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// the drain timeout. Anything else is an error, after which the child
// is killed and reaped.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal rhserved: %w", err)
	}
	select {
	case err := <-d.exit:
		if err != nil {
			return fmt.Errorf("rhserved drain: %v: %s", err, d.logs.String())
		}
		return nil
	case <-time.After(drainTimeout + 5*time.Second):
		d.kill()
		return fmt.Errorf("rhserved did not exit within %v of SIGTERM", drainTimeout)
	}
}

// kill stops the child hard and waits for it to be reaped.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exit
}

// procUsage is what /proc reports about a process.
type procUsage struct {
	cpu     time.Duration // utime + stime
	peakRSS int64         // VmHWM in bytes
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; 100 on
// every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// readProc reads CPU time and peak RSS of pid from /proc.
func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return u, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return u, fmt.Errorf("/proc/%d/stat: %w", pid, err)
	}
	u.cpu = time.Duration(utime+stime) * clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return u, fmt.Errorf("/proc/%d/status VmHWM: %w", pid, err)
			}
			u.peakRSS = kb << 10
			return u, nil
		}
	}
	return u, fmt.Errorf("/proc/%d/status has no VmHWM", pid)
}

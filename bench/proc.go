package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The serving workloads measure the real binaries from outside: this file
// builds cmd/serve and cmd/router, starts them on free loopback ports in
// their own process groups, waits until they answer, reads their CPU time
// and peak RSS from /proc, and tears them down so an aborted run never
// leaves a listener behind.

// buildBinaries compiles cmd/serve and cmd/router into dir. With a warm
// build cache this is a staleness check; the first call in a fresh
// checkout compiles the module.
func buildBinaries(dir string) (serveBin, routerBin string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	serveBin, routerBin = filepath.Join(dir, "serve"), filepath.Join(dir, "router")
	for _, b := range [][2]string{{serveBin, "repro/cmd/serve"}, {routerBin, "repro/cmd/router"}} {
		if out, err := exec.Command("go", "build", "-o", b[0], b[1]).CombinedOutput(); err != nil {
			return "", "", fmt.Errorf("go build %s: %v\n%s", b[1], err, out)
		}
	}
	return serveBin, routerBin, nil
}

// child is one spawned system-under-test process.
type child struct {
	name   string
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{} // closed once Wait has returned
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) alive() bool {
	select {
	case <-c.exited:
		return false
	default:
		return true
	}
}

// startChild runs bin with args, its output captured to logPath. The
// child leads its own process group (so the whole group can be signalled)
// and is killed by the kernel if this process dies first.
func startChild(name, bin, logPath string, args ...string) (*child, error) {
	if err := os.MkdirAll(filepath.Dir(logPath), 0o755); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, log: logf, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a signalled child carries no information
		close(c.exited)
	}()
	return c, nil
}

// stop ends the child's process group: SIGTERM (the binaries drain
// gracefully), then SIGKILL if it has not exited within grace.
func (c *child) stop(grace time.Duration) {
	if c.alive() {
		_ = syscall.Kill(-c.pid(), syscall.SIGTERM) // ESRCH if it exited meanwhile
		select {
		case <-c.exited:
		case <-time.After(grace):
			_ = syscall.Kill(-c.pid(), syscall.SIGKILL)
			<-c.exited
		}
	}
	c.log.Close()
}

const stopGrace = 5 * time.Second

// freeAddr returns a loopback address whose port was free a moment ago.
// cmd/serve logs its -addr flag, not the bound address, so ":0" is not
// discoverable; the caller retries on the rare lost race.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

var errChildExited = errors.New("process exited before becoming ready")

// waitReady polls probe every 200 µs — set-up takes a few milliseconds,
// and the poll interval is its resolution — until it succeeds, the child
// exits, or timeout passes.
func waitReady(c *child, timeout time.Duration, probe func() error) error {
	deadline := time.Now().Add(timeout)
	for {
		err := probe()
		if err == nil {
			return nil
		}
		if !c.alive() {
			return fmt.Errorf("%s: %w (last probe: %v)", c.name, errChildExited, err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not ready after %v: %w", c.name, timeout, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

const readyTimeout = 20 * time.Second

var probeClient = &http.Client{Timeout: 2 * time.Second}

// httpOK probes one GET for a 200 whose body contains want.
func httpOK(url, want string) func() error {
	return func() error {
		resp, err := probeClient.Get(url)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		if _, err := body.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
		}
		if !strings.Contains(body.String(), want) {
			return fmt.Errorf("GET %s: %q not in answer", url, want)
		}
		return nil
	}
}

// tcpOpen probes that addr accepts connections.
func tcpOpen(addr string) func() error {
	return func() error {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			return err
		}
		return nc.Close()
	}
}

// procCPU returns the user+system CPU time a process has used, from
// /proc/<pid>/stat (clock ticks, 10 ms each on Linux).
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(data, ')')
	fields := strings.Fields(string(data[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// clockTick is USER_HZ, fixed at 100 on every Linux ABI Go supports.
const clockTick = 10 * time.Millisecond

// procPeakRSS returns a process's peak resident set (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest) // "   18432 kB"
			if len(fields) == 0 {
				return 0, fmt.Errorf("/proc/%d/status: empty VmHWM", pid)
			}
			kb, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status: bad VmHWM %q", pid, rest)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM", pid)
}

// selfCPU returns this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail with a valid who and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

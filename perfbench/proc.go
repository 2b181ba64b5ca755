package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// This file manages ftserve processes and reads their resource use from
// /proc. Everything here sees ftserve only from outside: its command line,
// its stdout banner, HTTP, and the kernel's accounting.

// clockTick is the unit of utime/stime in /proc/<pid>/stat (USER_HZ, which
// is 100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// ftserveProc is one running ftserve.
type ftserveProc struct {
	cmd     *exec.Cmd
	addr    string        // host:port it listens on
	exited  chan struct{} // closed once the process is reaped
	waitErr error         // its exit status, valid after exited closes
}

// startFtserve starts bin with args plus an ephemeral loopback address and
// returns once /readyz answers 200, with the time from exec to that answer.
func startFtserve(bin string, args []string) (*ftserveProc, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The kernel kills ftserve if the benchmark dies first, so an aborted
	// run leaves no server behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting ftserve: %w", err)
	}
	p := &ftserveProc{cmd: cmd, exited: make(chan struct{})}
	banner := make(chan string, 1)
	go func() {
		defer close(p.exited)
		br := bufio.NewReader(out)
		line, _ := br.ReadString('\n')
		banner <- line
		_, _ = io.Copy(io.Discard, br) // ftserve's later lines are not needed
		p.waitErr = cmd.Wait()         // after EOF, as StdoutPipe requires
	}()
	select {
	case line := <-banner:
		// "ftserve: serving /v1/route on http://127.0.0.1:PORT (...)"
		_, rest, ok := strings.Cut(line, "http://")
		host, _, _ := strings.Cut(rest, " ")
		if !ok || host == "" {
			p.kill()
			return nil, 0, fmt.Errorf("ftserve banner %q has no address", strings.TrimSpace(line))
		}
		p.addr = host
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, 0, fmt.Errorf("ftserve printed no banner within 30s")
	}
	for {
		if status, _, err := get(p.addr, "/readyz"); err == nil && status == http.StatusOK {
			return p, time.Since(begin), nil
		}
		if time.Since(begin) > 30*time.Second {
			p.kill()
			return nil, 0, fmt.Errorf("ftserve at %s not ready within 30s", p.addr)
		}
		preciseSleep(100 * time.Microsecond)
	}
}

// stop sends SIGTERM (ftserve drains and exits 0) and waits for the
// process; one still running 10s later is killed.
func (p *ftserveProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("stopping ftserve: %w", err)
	}
	select {
	case <-p.exited:
		if p.waitErr != nil {
			return fmt.Errorf("ftserve exit: %w", p.waitErr)
		}
		return nil
	case <-time.After(10 * time.Second):
		p.kill()
		return fmt.Errorf("ftserve did not exit within 10s of SIGTERM; killed")
	}
}

// kill ends the process at once, if it still runs, and waits until it is
// reaped. Safe to call after stop.
func (p *ftserveProc) kill() {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Kill() // racing a normal exit is harmless
		<-p.exited
	}
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("unexpected /proc/%d/stat: %q", pid, raw)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s VmHWM %q: %w", path, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no VmHWM line", path)
}

// httpConn is one keep-alive HTTP/1.1 client connection. Requests are
// written as prebuilt bytes and responses read with net/http's parser, so
// the per-request client cost is two syscalls and one small parse.
type httpConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*httpConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

// roundTrip writes one complete request and reads the whole response. On a
// transport error the connection is replaced, so the next call starts clean.
func (h *httpConn) roundTrip(req []byte) (int, []byte, error) {
	status, body, err := h.exchange(req)
	if err != nil {
		h.c.Close()
		if c, derr := dial(h.addr); derr == nil {
			*h = *c
		}
	}
	return status, body, err
}

func (h *httpConn) exchange(req []byte) (int, []byte, error) {
	if _, err := h.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (h *httpConn) close() { h.c.Close() }

// getRequest is the prebuilt bytes of a GET for path.
func getRequest(path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: bench\r\n\r\n")
}

// postRequest is the prebuilt bytes of a JSON POST to /v1/route.
func postRequest(body []byte) []byte {
	head := fmt.Sprintf("POST /v1/route HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	return append([]byte(head), body...)
}

// get performs one GET on a fresh connection.
func get(addr, path string) (int, []byte, error) {
	h, err := dial(addr)
	if err != nil {
		return 0, nil, err
	}
	defer h.close()
	return h.exchange(getRequest(path))
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

	"kdrsolvers/internal/serve"
)

// server is one mmserve subprocess, started at its defaults plus -addr
// and -wal-dir.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	walDir string
	stderr bytes.Buffer
	exited chan struct{}
}

// startServer execs mmserve and waits for its first 200 from /healthz.
// The returned duration is exec to that 200: the server's set-up time.
func startServer(bin, walDir string, client *http.Client) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	s := &server{base: "http://" + addr, walDir: walDir, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, "-addr", addr, "-wal-dir", walDir)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive the benchmark, however it ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start mmserve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	deadline := t0.Add(60 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, 0, fmt.Errorf("mmserve exited before it was healthy: %s", strings.TrimSpace(s.stderr.String()))
		default:
		}
		if resp, err := client.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("mmserve not healthy after 60s")
		}
		time.Sleep(100 * time.Microsecond)
	}
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

// stop drains the server with SIGTERM (in-flight jobs finish, the
// journal is closed) and waits for it to exit, killing it after 60s.
func (s *server) stop() error {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(60 * time.Second):
		s.kill()
		return fmt.Errorf("mmserve did not drain within 60s")
	}
	if st := s.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("mmserve exited with %v: %s", st, strings.TrimSpace(s.stderr.String()))
	}
	return nil
}

// kill ends the process without draining and waits for it.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
}

// rssSampler reads a process's VmRSS every rssEvery until stopped.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // kB
}

const rssEvery = 50 * time.Millisecond

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS"); err == nil {
				s.samples = append(s.samples, kb)
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// end stops the sampler and returns its samples.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// procStatusKB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status.
func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/" + strconv.Itoa(pid) + "/status"
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s field", path, field)
}

// newClient returns an HTTP client holding at most conns connections
// to the server.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// doJSON sends one request and decodes a JSON reply into out. It
// returns the HTTP status; a 200/202 whose body does not decode is
// reported with errUndecodable (the server writes an empty body when a
// result holds a NaN it cannot encode).
func doJSON(client *http.Client, method, url string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 || out == nil {
		return resp.StatusCode, nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return resp.StatusCode, errUndecodable
	}
	return resp.StatusCode, nil
}

var errUndecodable = errors.New("undecodable job view")

// metrics reads GET /metrics.
func (s *server) metrics(client *http.Client) (serve.MetricsSnapshot, error) {
	var m serve.MetricsSnapshot
	st, err := doJSON(client, http.MethodGet, s.base+"/metrics", nil, &m)
	if err == nil && st != http.StatusOK {
		err = fmt.Errorf("GET /metrics: status %d", st)
	}
	return m, err
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
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

// serverGOMAXPROCS is the server's processor count, pinned so a result never
// depends on how the Go runtime reads the container's CPU quota.
const serverGOMAXPROCS = 2

// server is one spawned `topoinv serve` process with its disk store.
type server struct {
	cmd   *exec.Cmd
	base  string // http://127.0.0.1:port
	dir   string // run directory: store/ and server.log
	store string
	log   *os.File
}

// startServer launches bin serve on a free loopback port with a disk store in
// a fresh directory under work, and returns once the server answers.
func startServer(bin, work string) (*server, error) {
	if err := os.MkdirAll(filepath.Join(work, "run"), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(filepath.Join(work, "run"), "serve-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://127.0.0.1:" + port, dir: dir, store: filepath.Join(dir, "store"), log: logf}
	s.cmd = exec.Command(bin, "serve", "-addr", "127.0.0.1:"+port, "-store", s.store, "-log-level", "warn")
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	s.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS))
	// The server dies with the benchmark, even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", "127.0.0.1:"+port, time.Second)
		if err == nil {
			conn.Close()
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("server did not listen on port %s within 30s (log: %s)", port, logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return strconv.Itoa(l.Addr().(*net.TCPAddr).Port), nil
}

// stop sends SIGTERM (the server then flushes its store), waits for the
// process to exit, kills it after 10s, and removes the run directory.
func (s *server) stop() {
	if s.cmd.Process != nil {
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			_ = s.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-done
		}
	}
	s.log.Close()
	_ = os.RemoveAll(s.dir)
}

// cpuSeconds returns the server's user+system CPU time from /proc (clock
// ticks of 10ms).
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return (ut + st) / 100, nil
}

// rssMB returns the server's resident set size in MiB.
func (s *server) rssMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc status")
}

// storeBytes sums the sizes of every file in the server's store directory.
func (s *server) storeBytes() (int64, error) {
	var total int64
	err := filepath.Walk(s.store, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// client is the benchmark's HTTP client: at most conns keep-alive
// connections to one server.
type client struct {
	http *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{http: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request with an optional JSON body and decodes a 2xx JSON
// response into out.  Any other status is an error.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// stats is the part of GET /v1/stats the benchmark reads: engine counters,
// cache capacities, build identity and the JSON snapshot of every /metrics
// instrument.
type stats struct {
	CacheHits      float64 `json:"cache_hits"`
	CacheMisses    float64 `json:"cache_misses"`
	CacheCapacity  int     `json:"cache_capacity"`
	AnswerHits     float64 `json:"answer_hits"`
	AnswerMisses   float64 `json:"answer_misses"`
	AnswerCapacity int     `json:"answer_capacity"`
	EvalHits       float64 `json:"eval_hits"`
	EvalMisses     float64 `json:"eval_misses"`
	EvalCapacity   int     `json:"eval_capacity"`
	Computes       float64 `json:"computes"`
	Build          struct {
		Revision  string `json:"vcs_revision"`
		GoVersion string `json:"go_version"`
	} `json:"build"`
	Metrics map[string]any `json:"metrics"`
}

func (c *client) stats() (*stats, error) {
	var st stats
	if err := c.do("GET", "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// metricSum returns the total of a snapshot instrument over all its labels:
// a counter's value, or a histogram's field ("count" or "sum").  Labels of
// the /v1/stats route are left out: the benchmark's own stats reads are not
// workload requests.
func metricSum(m map[string]any, name, field string) float64 {
	var walk func(v any, label string) float64
	walk = func(v any, label string) float64 {
		if strings.Contains(label, "/v1/stats") {
			return 0
		}
		switch x := v.(type) {
		case float64:
			return x
		case map[string]any:
			if f, ok := x[field]; ok {
				if n, ok := f.(float64); ok {
					return n
				}
			}
			total := 0.0
			for k, sub := range x {
				total += walk(sub, k)
			}
			return total
		}
		return 0
	}
	return walk(m[name], "")
}

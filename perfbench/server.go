package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
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

// server is one running smore-serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  string // path of the captured stderr
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots bin on the bundle and returns once /healthz answers 200.
func startServer(bin, bundle, logPath string, extra []string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	args := append([]string{"-load", bundle, "-addr", fmt.Sprintf("127.0.0.1:%d", port)}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// If the benchmark itself is killed, the server goes with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, base: fmt.Sprintf("http://127.0.0.1:%d", port), log: logPath, done: make(chan error, 1)}
	go func() { s.done <- cmd.Wait() }()
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case werr := <-s.done:
			s.done <- werr
			return nil, fmt.Errorf("smore-serve exited during boot (%v): %s", werr, s.logTail())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("smore-serve not healthy after 30s: %s", s.logTail())
		}
	}
}

// stop sends SIGTERM (the server drains its stream queue and writes a final
// checkpoint), waits for the exit, and escalates to SIGKILL after 60s. It
// returns the process's exit error, if any.
func (s *server) stop() error {
	select {
	case err := <-s.done: // already exited (and reaped)
		s.done <- err
		return err
	default:
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // a process exiting meanwhile is reaped below
	select {
	case err := <-s.done:
		s.done <- err
		return err
	case <-time.After(60 * time.Second):
		_ = s.cmd.Process.Kill() // reaped below
		err := <-s.done
		s.done <- err
		return fmt.Errorf("smore-serve ignored SIGTERM for 60s: %v", err)
	}
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log) // diagnostics only
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

// cpuSeconds is the process's on-CPU time so far: the first field of
// /proc/<pid>/task/*/schedstat, summed over its threads. It counts
// nanoseconds; the utime+stime of /proc/<pid>/stat count 10 ms ticks, too
// coarse to tell two runs apart. (A thread that exits takes its time with
// it; the Go runtime keeps its threads.)
func (s *server) cpuSeconds() (float64, error) {
	dir := fmt.Sprintf("/proc/%d/task", s.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var ns int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if errors.Is(err, fs.ErrNotExist) {
			continue // the thread exited between the listing and the read
		}
		if err != nil {
			return 0, err
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("empty %s/%s/schedstat", dir, t.Name())
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return float64(ns) / 1e9, nil
}

// hostCPU is the machine-wide CPU time from the first line of /proc/stat,
// in clock ticks: all of it, and the part the hypervisor stole.
func hostCPU() (total, steal float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, err
		}
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal, nil
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func (s *server) rssPeakMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// stageCounters are the cumulative smore_stage_* counters of /metrics.
type stageCounters map[string]struct {
	ops  float64
	secs float64
}

// scrapeStages reads the per-stage op counts and busy seconds from /metrics.
func scrapeStages(c *http.Client, base string) (stageCounters, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := stageCounters{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		var field string
		switch {
		case strings.HasPrefix(line, "smore_stage_ops_total{"):
			field = "ops"
		case strings.HasPrefix(line, "smore_stage_latency_seconds_total{"):
			field = "secs"
		default:
			continue
		}
		name, rest, ok := strings.Cut(line[strings.IndexByte(line, '"')+1:], `"`)
		if !ok {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimPrefix(rest, "}")), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		e := out[name]
		if field == "ops" {
			e.ops = v
		} else {
			e.secs = v
		}
		out[name] = e
	}
	return out, sc.Err()
}

// perOpUS is a stage's busy microseconds per operation between two scrapes,
// with the operation count.
func (after stageCounters) perOpUS(before stageCounters, stage string) (us, ops float64) {
	ops = after[stage].ops - before[stage].ops
	if ops <= 0 {
		return 0, 0
	}
	return (after[stage].secs - before[stage].secs) / ops * 1e6, ops
}

// streamStats is the part of /v1/stream/stats the benchmark reads.
type streamStats struct {
	QueueDepth    int   `json:"queue_depth"`
	InFlight      int   `json:"in_flight"`
	Enqueued      int64 `json:"enqueued_total"`
	Dropped       int64 `json:"dropped_total"`
	BatchesFolded int64 `json:"batches_folded_total"`
	WindowsFolded int64 `json:"windows_folded_total"`
	WindowsLost   int64 `json:"windows_lost_total"`
	Adapt         struct {
		PseudoLabels int `json:"pseudo_labels"`
		Skipped      int `json:"skipped"`
	} `json:"adapt_stats"`
}

func getStreamStats(c *http.Client, base string) (streamStats, error) {
	var st streamStats
	resp, err := c.Get(base + "/v1/stream/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /v1/stream/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// waitDrained polls the stream stats until nothing is queued or folding.
func waitDrained(c *http.Client, base string, limit time.Duration) (streamStats, error) {
	deadline := time.Now().Add(limit)
	for {
		st, err := getStreamStats(c, base)
		if err != nil {
			return st, err
		}
		if st.QueueDepth == 0 && st.InFlight == 0 {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("stream queue not drained after %v (%d queued, %d in flight)", limit, st.QueueDepth, st.InFlight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkpointMatchesExport takes a final POST /v1/checkpoint and checks that
// the generation it wrote is byte-identical to GET /v1/model.
func checkpointMatchesExport(c *http.Client, base, stateDir string) error {
	resp, err := c.Post(base+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		return err
	}
	var ck struct {
		Generation int64 `json:"generation"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ck)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("final checkpoint: status %s, %v", resp.Status, err)
	}
	disk, err := os.ReadFile(filepath.Join(stateDir, "default", fmt.Sprintf("gen-%08d.smore", ck.Generation)))
	if err != nil {
		return fmt.Errorf("reading checkpoint generation %d: %w", ck.Generation, err)
	}
	resp, err = c.Get(base + "/v1/model")
	if err != nil {
		return err
	}
	export, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /v1/model: status %s, %v", resp.Status, err)
	}
	if !bytes.Equal(disk, export) {
		return fmt.Errorf("checkpoint generation %d (%d bytes) differs from GET /v1/model (%d bytes)", ck.Generation, len(disk), len(export))
	}
	return nil
}

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
	"sync"
	"syscall"
	"time"

	"dlsmech/internal/compute"
	"dlsmech/internal/server"
)

const (
	// readyTimeout bounds a daemon's start, ledger recovery included.
	readyTimeout = 60 * time.Second
	// drainTimeout bounds a daemon's graceful exit after SIGTERM before its
	// process group is killed.
	drainTimeout = 10 * time.Second
	// clientTimeout bounds one round trip.
	clientTimeout = 30 * time.Second
	// logTail is how many daemon log lines are kept for error reports.
	logTail = 20
)

// daemon is one dlsd child process, started in its own process group.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // mechanism listener
	metrics string // http://host:port/metrics
	exited  chan struct{}

	mu   sync.Mutex
	tail []string
}

// owner tracks every daemon and directory a run creates, so that every exit
// path can stop and remove them.
type owner struct {
	mu      sync.Mutex
	daemons map[*daemon]struct{}
	dirs    []string
}

func newOwner() *owner { return &owner{daemons: make(map[*daemon]struct{})} }

// mkdir creates a fresh directory under parent that cleanup removes.
func (o *owner) mkdir(parent, pattern string) (string, error) {
	dir, err := os.MkdirTemp(parent, pattern)
	if err != nil {
		return "", err
	}
	o.mu.Lock()
	o.dirs = append(o.dirs, dir)
	o.mu.Unlock()
	return dir, nil
}

// remove deletes one directory made by mkdir.
func (o *owner) remove(dir string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	for i, d := range o.dirs {
		if d == dir {
			o.dirs = append(o.dirs[:i], o.dirs[i+1:]...)
			break
		}
	}
	return os.RemoveAll(dir)
}

// cleanup stops every live daemon and removes every directory.
func (o *owner) cleanup() {
	o.mu.Lock()
	ds := make([]*daemon, 0, len(o.daemons))
	for d := range o.daemons {
		ds = append(ds, d)
	}
	dirs := o.dirs
	o.dirs = nil
	o.mu.Unlock()
	for _, d := range ds {
		o.stop(d)
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(dir); err != nil {
			fmt.Fprintf(os.Stderr, "dlsperf: remove %s: %v\n", dir, err)
		}
	}
}

// start spawns dlsd with args and waits until both of its listeners are
// bound, reading the addresses from its log.
func (o *owner) start(ctx context.Context, bin string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, args...)
	// Own process group, so the whole group can be killed; SIGKILL if this
	// process dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dlsd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	o.mu.Lock()
	o.daemons[d] = struct{}{}
	o.mu.Unlock()
	fmt.Fprintf(os.Stderr, "dlsperf: dlsd pid %d started\n", cmd.Process.Pid)

	ready := make(chan struct{})
	go func() {
		d.readLog(stderr, ready)
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case <-ready:
		return d, nil
	case <-d.exited:
		o.stop(d)
		return nil, fmt.Errorf("dlsd exited before serving: %s", d.logTail())
	case <-ctx.Done():
		o.stop(d)
		return nil, ctx.Err()
	case <-time.After(readyTimeout):
		o.stop(d)
		return nil, fmt.Errorf("dlsd not ready after %v: %s", readyTimeout, d.logTail())
	}
}

// readLog consumes the daemon's log until it closes, closing ready once
// both listener addresses are known.
func (d *daemon) readLog(r io.Reader, ready chan struct{}) {
	sc := bufio.NewScanner(r)
	var addr, metrics string
	for sc.Scan() {
		line := sc.Text()
		if a, ok := after(line, "listening on "); ok && addr == "" {
			addr = a
		}
		if a, ok := after(line, "metrics on "); ok && metrics == "" {
			metrics = a
		}
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > logTail {
			d.tail = d.tail[1:]
		}
		if addr != "" && metrics != "" && d.addr == "" {
			d.addr, d.metrics = addr, metrics
			close(ready)
		}
		d.mu.Unlock()
	}
	// A scanner error (an over-long line) must not stop the drain: the
	// daemon would block on a full pipe.
	io.Copy(io.Discard, r)
}

func after(line, marker string) (string, bool) {
	i := strings.Index(line, marker)
	if i < 0 {
		return "", false
	}
	f := strings.Fields(line[i+len(marker):])
	if len(f) == 0 {
		return "", false
	}
	return f[0], true
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, " | ")
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop sends SIGTERM, waits for the graceful drain with a bound, then
// kills the daemon's process group and waits for the daemon to be reaped.
// It reports whether the daemon exited within the drain bound.
func (o *owner) stop(d *daemon) bool {
	graceful := true
	select {
	case <-d.exited:
	default:
		syscall.Kill(d.pid(), syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(drainTimeout):
			graceful = false
		}
	}
	// The group may hold processes the daemon started; none may outlive it.
	syscall.Kill(-d.pid(), syscall.SIGKILL)
	<-d.exited
	o.mu.Lock()
	delete(o.daemons, d)
	o.mu.Unlock()
	return graceful
}

// scrape fetches the daemon's metrics as a name → value map. Histogram
// buckets are skipped; their _sum and _count samples are kept.
func (d *daemon) scrape() (map[string]float64, error) {
	c := &http.Client{Timeout: 5 * time.Second}
	resp, err := c.Get(d.metrics)
	if err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", d.metrics, resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: sample %q: %w", line, err)
		}
		out[name] = f
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scrape: %w", err)
	}
	return out, nil
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	// USER_HZ is 100 on every Linux the toolchain targets.
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// procMem returns a process's resident set and its high-water mark, in KiB,
// from /proc/<pid>/status.
func procMem(pid int) (rss, hwm int64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || (k != "VmRSS" && k != "VmHWM") {
			continue
		}
		f := strings.Fields(v)
		if len(f) == 0 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, 0, err
		}
		if k == "VmRSS" {
			rss = n
		} else {
			hwm = n
		}
	}
	if rss == 0 || hwm == 0 {
		return 0, 0, errors.New("no VmRSS/VmHWM in /proc status")
	}
	return rss, hwm, nil
}

// Series the scrape diffs read. A series missing from a scrape fails the
// run instead of reading as zero, so a renamed counter shows. The compute
// series are absent only when dlsd runs with both plane halves off.
var (
	serverSeries = []string{
		server.MetricRoundSeconds + "_sum",
		server.MetricRoundSeconds + "_count",
		server.MetricRoundsRejected,
		server.MetricSessionsCreated,
		server.MetricSessionsPooled,
	}
	computeSeries = []string{
		compute.MetricVerifyBatchOccupancy + "_sum",
		compute.MetricVerifyBatchOccupancy + "_count",
		compute.MetricVerifyFlushDeadline,
		compute.MetricVerifyBatches,
		compute.MetricVerifyLocalHits,
		compute.MetricVerifySubmitted,
		compute.MetricPlanCacheHits,
		compute.MetricPlanCacheMisses,
		compute.MetricPlanCacheBytes,
	}
)

// missingSeries lists the series of names absent from a scrape.
func missingSeries(scr map[string]float64, names []string) []string {
	var miss []string
	for _, n := range names {
		if _, ok := scr[n]; !ok {
			miss = append(miss, n)
		}
	}
	return miss
}

// scrapeLayers derives the server and compute metrics from the counter
// deltas over the measured windows and the last scrape (for gauges and
// lifetime counters). clientMs is the mean round time the clients saw.
func scrapeLayers(delta, last map[string]float64, clientMs float64, v map[string]float64) error {
	want := append([]string(nil), serverSeries...)
	planeOn := false
	for n := range last {
		planeOn = planeOn || strings.HasPrefix(n, "dlsd_compute_")
	}
	if planeOn {
		want = append(want, computeSeries...)
	}
	if miss := missingSeries(last, want); len(miss) > 0 {
		return fmt.Errorf("dlsd scrape lacks %s", strings.Join(miss, ", "))
	}
	d := func(n string) float64 { return delta[n] }
	runMs := 1e3 * ratio(d(server.MetricRoundSeconds+"_sum"), d(server.MetricRoundSeconds+"_count"))
	v["server.run_mean_ms"] = runMs
	v["server.outside_run_mean_ms"] = clientMs - runMs
	v["server.rounds_rejected"] = d(server.MetricRoundsRejected)
	v["server.sessions_created"] = last[server.MetricSessionsCreated]
	v["server.sessions_pooled"] = last[server.MetricSessionsPooled]

	v["compute.verify_batch_occupancy"] = ratio(d(compute.MetricVerifyBatchOccupancy+"_sum"), d(compute.MetricVerifyBatchOccupancy+"_count"))
	v["compute.verify_flush_deadline_frac"] = ratio(d(compute.MetricVerifyFlushDeadline), d(compute.MetricVerifyBatches))
	v["compute.verify_local_hit_ratio"] = ratio(d(compute.MetricVerifyLocalHits), d(compute.MetricVerifySubmitted))
	hits, misses := d(compute.MetricPlanCacheHits), d(compute.MetricPlanCacheMisses)
	v["compute.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["compute.plan_cache_bytes"] = last[compute.MetricPlanCacheBytes]

	return nil
}

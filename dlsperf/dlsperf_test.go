package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dlsmech/internal/wire"
)

// bins holds the dlsd and dlsperf binaries built once for the tests that
// run them.
var bins struct {
	once         sync.Once
	dir          string
	dlsd, dlsprf string
	err          error
}

func buildBins(t *testing.T) (dlsd, dlsperf string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the daemon")
	}
	bins.once.Do(func() {
		bins.dir, bins.err = os.MkdirTemp("", "dlsperf-test-")
		if bins.err != nil {
			return
		}
		bins.dlsd = filepath.Join(bins.dir, "dlsd")
		bins.dlsprf = filepath.Join(bins.dir, "dlsperf")
		for _, args := range [][]string{
			{"build", "-o", bins.dlsd, "dlsmech/cmd/dlsd"},
			{"build", "-o", bins.dlsprf, "."},
		} {
			if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
				bins.err = errors.New(string(out))
				return
			}
		}
	})
	if bins.err != nil {
		t.Fatalf("build: %v", bins.err)
	}
	return bins.dlsd, bins.dlsprf
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bins.dir != "" {
		os.RemoveAll(bins.dir)
	}
	os.Exit(code)
}

// encodeStreams encodes the first n requests of every connection.
func encodeStreams(s spec, seed uint64, n int) []byte {
	var out []byte
	for _, st := range newStreams(s, seed) {
		out = wire.AppendHello(out, st.hello)
		for r := 0; r < n; r++ {
			out = wire.AppendRound(out, st.next())
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, s := range specs {
		a, b := encodeStreams(s, 42, 50), encodeStreams(s, 42, 50)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 42 gave two different request streams", s.name)
		}
		if bytes.Equal(a, encodeStreams(s, 43, 50)) {
			t.Errorf("%s: seeds 42 and 43 gave the same request stream", s.name)
		}
	}
}

// TestFreshChangesEveryW: fresh re-draws every w_i each round and repeat
// never changes W; neither changes Z.
func TestFreshChangesEveryW(t *testing.T) {
	for _, s := range specs {
		for _, st := range newStreams(s, 9) {
			prev := st.next()
			for r := 0; r < 30; r++ {
				rq := st.next()
				for i := range rq.W {
					same := rq.W[i] == prev.W[i]
					if s.fresh && same {
						t.Fatalf("%s round %d: w_%d did not change", s.name, rq.Seq, i)
					}
					if !s.fresh && !same {
						t.Fatalf("%s round %d: w_%d changed", s.name, rq.Seq, i)
					}
				}
				for i := range rq.Z {
					if rq.Z[i] != prev.Z[i] {
						t.Fatalf("%s round %d: z_%d changed", s.name, rq.Seq, i)
					}
				}
				if rq.Seed == prev.Seed {
					t.Fatalf("%s round %d reuses the round seed", s.name, rq.Seq)
				}
				prev = rq
			}
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := make(map[string]bool)
	for _, mt := range catalogue {
		if !nameRE.MatchString(mt.name) {
			t.Errorf("metric name %q does not match %s", mt.name, nameRE)
		}
		if !unitRE.MatchString(mt.unit) {
			t.Errorf("metric %s: unit %q does not match %s", mt.name, mt.unit, unitRE)
		}
		if mt.better != "lower" && mt.better != "higher" {
			t.Errorf("metric %s: better %q", mt.name, mt.better)
		}
		if mt.e2e != (mt.bound > 0) || mt.bound > 0.25 {
			t.Errorf("metric %s: bound %v", mt.name, mt.bound)
		}
		if seen[mt.name] {
			t.Errorf("metric %s listed twice", mt.name)
		}
		seen[mt.name] = true
	}
	for _, s := range specs {
		if !nameRE.MatchString(s.name) || seen[s.name] || len(s.why) > 200 {
			t.Errorf("workload %q: bad name or why", s.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json equal to the workloads and
// metrics the benchmark runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricJSON `json:"end_to_end"`
		PerLayer []metricJSON `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q %q, the benchmark %q %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	var want []metricJSON
	for _, mt := range catalogue {
		if mt.e2e {
			b := mt.bound
			want = append(want, metricJSON{Name: mt.name, Unit: mt.unit, Better: mt.better, Bound: &b})
		}
	}
	for _, mt := range catalogue {
		if !mt.e2e {
			want = append(want, metricJSON{Name: mt.name, Unit: mt.unit, Better: mt.better})
		}
	}
	got := append(append([]metricJSON(nil), bj.EndToEnd...), bj.PerLayer...)
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Errorf("BENCHMARK.json metrics differ from the catalogue:\n json: %s\n code: %s", gb, wb)
	}
}

// TestScrapedSeriesExist: every series the scrape diffs read is exported
// by a live dlsd with its shipped defaults.
func TestScrapedSeriesExist(t *testing.T) {
	dlsd, _ := buildBins(t)
	o := newOwner()
	defer o.cleanup()
	d, err := o.start(context.Background(), dlsd, daemonArgs)
	if err != nil {
		t.Fatal(err)
	}
	scr, err := d.scrape()
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]string(nil), serverSeries...), computeSeries...)
	if miss := missingSeries(scr, want); len(miss) > 0 {
		t.Fatalf("dlsd does not export %v", miss)
	}
	if !o.stop(d) {
		t.Fatal("dlsd did not drain after SIGTERM")
	}
}

// benchRun is one invocation of the built benchmark.
type benchRun struct {
	cmd     *exec.Cmd
	workDir string
	stdout  bytes.Buffer
	mu      sync.Mutex
	pids    []int
	lines   chan string // stderr lines
	done    chan error
}

func startBench(t *testing.T, args ...string) *benchRun {
	t.Helper()
	dlsd, dlsperf := buildBins(t)
	return startBenchWith(t, dlsd, dlsperf, args...)
}

func startBenchWith(t *testing.T, dlsd, dlsperf string, args ...string) *benchRun {
	t.Helper()
	r := &benchRun{workDir: t.TempDir(), lines: make(chan string, 1024), done: make(chan error, 1)}
	r.cmd = exec.Command(dlsperf, append([]string{"--dlsd", dlsd, "--work-dir", r.workDir}, args...)...)
	r.cmd.Stdout = &r.stdout
	stderr, err := r.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if f := strings.Fields(line); len(f) == 5 && f[1] == "dlsd" && f[2] == "pid" {
				if pid, err := strconv.Atoi(f[3]); err == nil {
					r.mu.Lock()
					r.pids = append(r.pids, pid)
					r.mu.Unlock()
				}
			}
			select {
			case r.lines <- line:
			default:
			}
		}
		r.done <- r.cmd.Wait()
	}()
	return r
}

// waitLine waits for a stderr line containing marker.
func (r *benchRun) waitLine(t *testing.T, marker string) {
	t.Helper()
	timeout := time.After(2 * time.Minute)
	for {
		select {
		case line := <-r.lines:
			if strings.Contains(line, marker) {
				return
			}
		case err := <-r.done:
			r.done <- err
			t.Fatalf("benchmark exited (%v) before printing %q", err, marker)
		case <-timeout:
			r.cmd.Process.Kill()
			t.Fatalf("no %q line within 2 minutes", marker)
		}
	}
}

// wait returns the benchmark's exit code.
func (r *benchRun) wait(t *testing.T) int {
	t.Helper()
	select {
	case err := <-r.done:
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatal(err)
		}
		return 0
	case <-time.After(3 * time.Minute):
		r.cmd.Process.Kill()
		t.Fatal("benchmark did not exit within 3 minutes")
		return -1
	}
}

// assertNothingLeft checks that every daemon the run started is gone and
// that it left no ledger directory.
func (r *benchRun) assertNothingLeft(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	pids := append([]int(nil), r.pids...)
	r.mu.Unlock()
	if len(pids) == 0 {
		t.Fatal("the run reported no daemon")
	}
	for _, pid := range pids {
		if err := syscall.Kill(pid, 0); !errors.Is(err, syscall.ESRCH) {
			t.Errorf("dlsd pid %d still exists (kill 0: %v)", pid, err)
		}
	}
	left, err := filepath.Glob(filepath.Join(r.workDir, "ledger-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) > 0 {
		t.Errorf("ledger directories left behind: %v", left)
	}
}

func (r *benchRun) lastLine() string {
	lines := strings.Split(strings.TrimSpace(r.stdout.String()), "\n")
	return lines[len(lines)-1]
}

func TestNormalRunCleansUp(t *testing.T) {
	r := startBench(t, "--workload", "repeat", "--seed", "3", "--seconds", "1", "--trace", "1")
	if code := r.wait(t); code != 0 {
		t.Fatalf("exit code %d; stdout:\n%s", code, r.stdout.String())
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(r.lastLine()), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Fatalf("result keys: %s", r.lastLine())
	}
	r.assertNothingLeft(t)
}

// TestInterruptCleansUp interrupts runs midway, once while the daemon
// serves the window and once while the traced run writes its ledger, and
// checks that neither a process nor a directory remains.
func TestInterruptCleansUp(t *testing.T) {
	for _, tc := range []struct {
		name, marker string
		args         []string
	}{
		{"window", "measuring", []string{"--seconds", "60", "--trace", "0"}},
		{"ledger", "ledger pass", []string{"--seconds", "1", "--trace", "1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := startBench(t, append([]string{"--workload", "repeat", "--seed", "4"}, tc.args...)...)
			r.waitLine(t, tc.marker)
			if err := r.cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			if code := r.wait(t); code == 0 {
				t.Fatal("interrupted run exited 0")
			}
			if strings.Contains(r.lastLine(), `"correct"`) {
				t.Fatalf("interrupted run printed a result: %s", r.lastLine())
			}
			r.assertNothingLeft(t)
		})
	}
}

// TestFailedCheckCleansUp: a daemon that refuses every round fails the run,
// which must still stop it.
func TestFailedCheckCleansUp(t *testing.T) {
	dlsd, dlsperf := buildBins(t)
	// dlsd behind a wrapper that caps the detector budget below what any
	// round asks for, so every round is refused.
	refusing := filepath.Join(t.TempDir(), "dlsd-refusing")
	script := "#!/bin/sh\nexec " + dlsd + " \"$@\" -max-detector-wait=1ms\n"
	if err := os.WriteFile(refusing, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	r := startBenchWith(t, refusing, dlsperf, "--workload", "repeat", "--seed", "5", "--seconds", "1", "--trace", "0")
	if code := r.wait(t); code == 0 {
		t.Fatal("run against a refusing daemon exited 0")
	}
	r.assertNothingLeft(t)
}

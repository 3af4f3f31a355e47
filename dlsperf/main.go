// Command dlsperf is the repository's served-round benchmark. It starts a
// fresh dlsd daemon per run as a child process with its shipped defaults,
// drives one workload over its client connections, checks every result,
// and prints every metric by name with its unit; the last line of standard
// output is a JSON object with the keys correct, attempted, failed and
// metrics.
//
// Usage, from the repository root (dlsperf/run.sh builds both binaries):
//
//	bash dlsperf/run.sh --workload repeat --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 additionally replays
// a seeded sample of the workload's rounds in-process, times each layer,
// and reports the per-layer metrics. The timed window is untraced either
// way. See dlsperf/README.md for the workloads and metrics.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime/debug"
	"syscall"
	"time"

	"dlsmech/internal/protocol"
	"dlsmech/internal/server"
	"dlsmech/internal/wire"
)

const (
	// runLimit bounds one invocation, cleanup included.
	runLimit = 170 * time.Second
	// segments is how many fresh daemons share a run's window. Each is set
	// up, warmed and measured in turn; setup_s is the median over the
	// segments, the other end-to-end metrics the median over their slices.
	segments = 5
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run parses the flags, runs one benchmark invocation and returns the exit
// code. Every daemon and directory it creates is gone when it returns, on
// success, failed checks, errors, panics, timeouts and signals alike.
func run(args []string, stdout io.Writer) (code int) {
	fl := flag.NewFlagSet("dlsperf", flag.ContinueOnError)
	name := fl.String("workload", "", "workload: repeat or fresh")
	seed := fl.Uint64("seed", 1, "workload seed")
	seconds := fl.Int("seconds", 10, "measured window in seconds")
	trace := fl.Int("trace", 0, "1: also run the traced replay and report per-layer metrics")
	dlsd := fl.String("dlsd", "", "dlsd binary to run")
	workDir := fl.String("work-dir", ".bench_build/dlsperf", "directory for ledgers and traces")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	s, err := specByName(*name)
	if err != nil || *dlsd == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "dlsperf: need --workload repeat|fresh, --dlsd, --seconds >= 1 and --trace 0|1 (%v)\n", err)
		return 2
	}

	o := newOwner()
	defer o.cleanup()
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "dlsperf: panic: %v\n%s", r, debug.Stack())
			code = 1
		}
	}()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "dlsperf: %v\n", err)
		return 1
	}
	b := &bench{spec: s, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dlsd: *dlsd, workDir: *workDir, o: o}
	out, err := b.run(ctx)
	if err == nil && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dlsperf: %s: %v\n", s.name, err)
		return 1
	}
	fp, _ := json.Marshal(out.fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fp)
	fmt.Fprintf(stdout, "rounds %d attempted, %d failed, %d latency samples\n", out.attempted, out.failed, out.samples)
	if out.failed > 0 {
		// The metrics of a run with failures are not comparable.
		fmt.Fprintf(os.Stderr, "dlsperf: %s: %d of %d rounds failed; first: %v\n", s.name, out.failed, out.attempted, out.firstErr)
		line, _ := json.Marshal(result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}})
		fmt.Fprintf(stdout, "%s\n", line)
		return 1
	}
	if err := emit(stdout, b.traced, out.vals, out.attempted, out.failed); err != nil {
		fmt.Fprintf(os.Stderr, "dlsperf: %v\n", err)
		return 1
	}
	return 0
}

type bench struct {
	spec    spec
	seed    uint64
	seconds int
	traced  bool
	dlsd    string
	workDir string
	o       *owner
}

// outcome is everything one run measured.
type outcome struct {
	fp                fingerprint
	vals              map[string]float64
	attempted, failed int
	samples           int
	firstErr          error
}

// daemonArgs are dlsd's flags: ephemeral ports, every other setting at its
// shipped default.
var daemonArgs = []string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}

// served is a daemon with its connections brought to their first warm round.
type served struct {
	d       *daemon
	cl      []*server.Client
	streams []*stream
}

// setup spawns a fresh daemon, dials every connection and serves its
// warm-up rounds.
func (b *bench) setup(ctx context.Context) (*served, time.Duration, error) {
	sv := &served{streams: newStreams(b.spec, b.seed)}
	start := time.Now()
	d, err := b.o.start(ctx, b.dlsd, daemonArgs)
	if err != nil {
		return nil, 0, err
	}
	sv.d = d
	if sv.cl, err = dialWarm(ctx, d.addr, sv.streams); err != nil {
		b.o.stop(d)
		return nil, 0, err
	}
	return sv, time.Since(start), nil
}

// teardown closes the connections and stops the daemon.
func (b *bench) teardown(sv *served) {
	closeAll(sv.cl)
	b.o.stop(sv.d)
}

// segment is what one daemon measured over its share of the window.
type segment struct {
	tallies    []*tally
	slices     []slice
	pre, post  map[string]float64 // scrapes around the window
	rss0, rss1 int64              // daemon RSS around the window, KiB
	hwm        int64              // daemon RSS high-water mark, KiB
	loadgenCPU time.Duration
	lat        []float64
}

// slice is the end-to-end figures of one slice of a segment's window.
type slice struct {
	rps, p50, p90, cpu float64 // cpu: daemon ms per round
}

// measure drives the warm traffic and then the measured window on a set-up
// daemon, bracketing the window with scrapes and /proc readings. The window
// is measured in slices of about the workload's slice length, each with its
// own latency percentiles and daemon CPU reading.
func (b *bench) measure(ctx context.Context, sv *served, window time.Duration) (*segment, error) {
	sg := &segment{tallies: newTallies(b.spec.conns, b.seed)}
	loop(ctx, time.Now().Add(warmTraffic), false, sv.cl, sv.streams, sg.tallies)
	pid := sv.d.pid()
	var err error
	if sg.pre, err = sv.d.scrape(); err != nil {
		return nil, err
	}
	if sg.rss0, _, err = procMem(pid); err != nil {
		return nil, err
	}
	n := max(1, int((window+b.spec.slice/2)/b.spec.slice))
	fmt.Fprintf(os.Stderr, "dlsperf: dlsd pid %d measuring for %v in %d slices\n", pid, window, n)
	ru0 := selfCPU()
	for k := 0; k < n; k++ {
		cpu0, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		from := make([]int, len(sg.tallies))
		for i, t := range sg.tallies {
			from[i] = len(t.lat)
		}
		start := time.Now()
		loop(ctx, start.Add(window/time.Duration(n)), true, sv.cl, sv.streams, sg.tallies)
		elapsed := time.Since(start)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cpu1, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		var lat []float64
		for i, t := range sg.tallies {
			lat = append(lat, t.lat[from[i]:]...)
		}
		if len(lat) == 0 {
			continue // a failed connection; the run reports no metrics
		}
		rounds := float64(len(lat))
		sg.slices = append(sg.slices, slice{
			rps: rounds / elapsed.Seconds(),
			p50: quantile(lat, 0.5),
			p90: quantile(lat, 0.9),
			cpu: ms(cpu1-cpu0) / rounds,
		})
	}
	sg.loadgenCPU = selfCPU() - ru0
	if sg.post, err = sv.d.scrape(); err != nil {
		return nil, err
	}
	if sg.rss1, sg.hwm, err = procMem(pid); err != nil {
		return nil, err
	}
	for _, t := range sg.tallies {
		sg.lat = append(sg.lat, t.lat...)
	}
	return sg, nil
}

// selfCPU returns the benchmark process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}

// run measures the window in segments, each on a freshly set-up daemon, and
// reports the median over all segments' slices of every end-to-end figure,
// and setup_s as the median over segments: a slice that met a burst of host
// noise, or a daemon that settled into a slower schedule, moves a median
// less than a mean.
func (b *bench) run(ctx context.Context) (*outcome, error) {
	out := &outcome{vals: make(map[string]float64)}
	v := out.vals
	out.fp = hostFingerprint(".", b.workDir)
	out.fp.DlsdFlags = daemonArgs
	out.fp.Workload, out.fp.Seed, out.fp.Seconds = b.spec.name, b.seed, b.seconds
	out.fp.Conns, out.fp.M, out.fp.Segments = b.spec.conns, m, segments

	window := time.Duration(b.seconds) * time.Second / segments
	var setupS, rps, p50, p90, cpu []float64
	var segs []*segment
	for k := 0; k < segments; k++ {
		sv, dur, err := b.setup(ctx)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		sg, err := b.measure(ctx, sv, window)
		b.teardown(sv)
		if err != nil {
			return nil, err
		}
		segs = append(segs, sg)
		setupS = append(setupS, dur.Seconds())
		for _, t := range sg.tallies {
			out.attempted += t.attempted
			out.failed += t.failed
			if out.firstErr == nil {
				out.firstErr = t.firstErr
			}
		}
		out.samples += len(sg.lat)
		if out.failed > 0 || len(sg.lat) == 0 {
			return out, nil // a run with failures reports no metrics
		}
		var sr, s50, s90, sc []float64
		for _, sl := range sg.slices {
			sr, s50, s90, sc = append(sr, sl.rps), append(s50, sl.p50), append(s90, sl.p90), append(sc, sl.cpu)
		}
		rps, p50, p90, cpu = append(rps, sr...), append(p50, s50...), append(p90, s90...), append(cpu, sc...)
		fmt.Fprintf(os.Stderr, "dlsperf: segment %d: setup %.3f s; medians of %d slices: %.1f rounds/s, p50 %.4g ms, p90 %.4g ms, daemon cpu %.4g ms/round\n",
			k, setupS[k], len(sg.slices), median(sr), median(s50), median(s90), median(sc))
	}
	v["setup_s"] = median(setupS)
	v["rounds_per_s"] = median(rps)
	v["round_p50_ms"] = median(p50)
	v["round_p90_ms"] = median(p90)
	v["daemon_cpu_ms_per_round"] = median(cpu)

	// Per-layer figures pool the segments.
	delta := make(map[string]float64)
	var lat []float64
	var rssGrowth, hwm int64
	var loadgen time.Duration
	for _, sg := range segs {
		for name, x := range sg.post {
			delta[name] += x - sg.pre[name]
		}
		lat = append(lat, sg.lat...)
		rssGrowth += sg.rss1 - sg.rss0
		hwm = max(hwm, sg.hwm)
		loadgen += sg.loadgenCPU
	}
	settled := float64(len(lat))
	clientMean := mean(lat)
	v["daemon.rss_peak_mib"] = float64(hwm) / 1024
	v["daemon.rss_growth_kib_per_round"] = float64(rssGrowth) / settled
	v["loadgen.cpu_ms_per_round"] = ms(loadgen) / settled
	v["loadgen.latency_samples"] = settled
	if err := scrapeLayers(delta, segs[len(segs)-1].post, clientMean, v); err != nil {
		return nil, err
	}

	// With every daemon stopped, served rounds must replay bit-identically
	// in-process.
	for _, sg := range segs {
		for _, t := range sg.tallies {
			for _, k := range t.kept {
				if err := replay(k); err != nil {
					out.failed++
					if out.firstErr == nil {
						out.firstErr = err
					}
				}
			}
		}
	}

	if b.traced && out.failed == 0 {
		if err := traceRun(ctx, b.o, b.spec, b.seed, b.workDir, clientMean, v); err != nil {
			return nil, fmt.Errorf("traced run: %w", err)
		}
	}
	return out, nil
}

// replay re-runs a served round on a new in-process session built from the
// same (size, seed) and compares the encodings byte for byte.
func replay(k kept) error {
	params, err := server.RoundParams(k.hello.Size, k.rq)
	if err != nil {
		return err
	}
	res, err := protocol.NewSession(k.hello.Size, k.hello.Seed).Run(params)
	if err != nil {
		return fmt.Errorf("replay round %d: %w", k.rq.Seq, err)
	}
	if !bytes.Equal(wire.AppendRoundResult(nil, server.ResultToWire(k.rq.Seq, res)), k.served) {
		return fmt.Errorf("%s round %d: served result differs from its in-process replay", k.hello.Tenant, k.rq.Seq)
	}
	return nil
}

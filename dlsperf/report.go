package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// metric is one reported figure. e2e metrics are printed by every timed run
// (--trace 0); the others by every traced run (--trace 1).
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	e2e    bool
	bound  float64 // e2e only: tolerated worsening, as a share of the median
}

// catalogue lists every metric, in print order. BENCHMARK.json mirrors it;
// a self-test keeps the two equal.
var catalogue = []metric{
	{name: "rounds_per_s", unit: "1/s", better: "higher", e2e: true, bound: 0.25},
	{name: "round_p50_ms", unit: "ms", better: "lower", e2e: true, bound: 0.25},
	{name: "round_p90_ms", unit: "ms", better: "lower", e2e: true, bound: 0.25},
	{name: "daemon_cpu_ms_per_round", unit: "ms", better: "lower", e2e: true, bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", e2e: true, bound: 0.25},

	{name: "server.run_mean_ms", unit: "ms", better: "lower"},
	{name: "server.outside_run_mean_ms", unit: "ms", better: "lower"},
	{name: "server.rounds_rejected", unit: "count", better: "lower"},
	{name: "server.sessions_created", unit: "count", better: "lower"},
	{name: "server.sessions_pooled", unit: "count", better: "higher"},

	{name: "wire.encode_round_us", unit: "us", better: "lower"},
	{name: "wire.decode_round_us", unit: "us", better: "lower"},
	{name: "wire.encode_result_us", unit: "us", better: "lower"},
	{name: "wire.decode_result_us", unit: "us", better: "lower"},
	{name: "wire.request_bytes", unit: "bytes", better: "lower"},
	{name: "wire.result_bytes", unit: "bytes", better: "lower"},

	{name: "protocol.run_ms", unit: "ms", better: "lower"},
	{name: "protocol.run_noplane_ms", unit: "ms", better: "lower"},
	{name: "protocol.messages_per_round", unit: "count", better: "lower"},

	{name: "sign.sign_us", unit: "us", better: "lower"},
	{name: "sign.verify_us", unit: "us", better: "lower"},
	{name: "sign.signatures_per_round", unit: "count", better: "lower"},
	{name: "sign.verifications_per_round", unit: "count", better: "lower"},
	{name: "sign.sign_memo_hit_ratio", unit: "ratio", better: "higher"},

	{name: "dlt.solve_us", unit: "us", better: "lower"},

	{name: "compute.verify_batch_occupancy", unit: "count", better: "higher"},
	{name: "compute.verify_flush_deadline_frac", unit: "ratio", better: "lower"},
	{name: "compute.verify_local_hit_ratio", unit: "ratio", better: "higher"},
	{name: "compute.plan_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "compute.plan_cache_bytes", unit: "bytes", better: "lower"},

	{name: "device.mint_us", unit: "us", better: "lower"},
	{name: "device.verify_us", unit: "us", better: "lower"},

	{name: "ledger.append_bytes_per_round", unit: "bytes", better: "lower"},
	{name: "ledger.appends_per_round", unit: "count", better: "lower"},
	{name: "ledger.fsyncs_per_round", unit: "count", better: "lower"},
	{name: "ledger.record_us", unit: "us", better: "lower"},
	{name: "ledger.close_us", unit: "us", better: "lower"},
	{name: "ledger.sync_us", unit: "us", better: "lower"},
	{name: "ledger.recover_s", unit: "s", better: "lower"},
	{name: "ledger.replay_mib_per_s", unit: "MiB/s", better: "higher"},

	{name: "daemon.rss_peak_mib", unit: "MiB", better: "lower"},
	{name: "daemon.rss_growth_kib_per_round", unit: "KiB", better: "lower"},
	{name: "loadgen.cpu_ms_per_round", unit: "ms", better: "lower"},
	{name: "loadgen.latency_samples", unit: "count", better: "higher"},

	{name: "trace.round_ms", unit: "ms", better: "lower"},
	{name: "trace.unaccounted_frac", unit: "ratio", better: "lower"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
}

// result is the last line of standard output, read by whoever runs the
// benchmark.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of the run's kind by name with its unit, then
// the result object as the last line. A metric the run did not measure is
// an error: a result must carry all of them.
func emit(w io.Writer, traced bool, vals map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricOut)}
	for _, mt := range catalogue {
		if mt.e2e == traced {
			continue
		}
		v, ok := vals[mt.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", mt.name)
		}
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", mt.name, v, mt.unit)
		res.Metrics[mt.name] = metricOut{Value: v, Unit: mt.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// fingerprint identifies the host and the configuration a result was
// measured on, so that later runs compare like with like.
type fingerprint struct {
	CPUModel   string   `json:"cpu_model"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Kernel     string   `json:"kernel"`
	GoVersion  string   `json:"go_version"`
	LedgerFS   string   `json:"ledger_fs"`
	Commit     string   `json:"commit"`
	DlsdFlags  []string `json:"dlsd_flags"`
	Workload   string   `json:"workload"`
	Seed       uint64   `json:"seed"`
	Seconds    int      `json:"seconds"`
	Conns      int      `json:"conns"`
	M          int      `json:"m"`
	Segments   int      `json:"segments"`
}

func hostFingerprint(root, ledgerParent string) fingerprint {
	return fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     kernel(),
		GoVersion:  runtime.Version(),
		LedgerFS:   fsType(ledgerParent),
		Commit:     gitCommit(root),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return "linux " + strings.TrimSpace(string(b))
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// gitCommit names the commit the checkout was built from, when it is a git
// work tree. GIT_DIR keeps git from searching the directories above it.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GIT_DIR=.git")
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// metricDef names one metric and its unit. The two catalogs below are the
// benchmark's contract: BENCHMARK.json lists exactly these names and units
// (a test keeps the two in step), an untraced run prints every endToEnd
// metric and a traced run every perLayer metric, whatever the workload.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"; end-to-end metrics only
}

// endToEnd are the metrics a user of the simulator or of warpedd sees.
// Every one is defined and non-zero on every workload, so each can carry a
// regression bound; README.md gives the per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sim_cycles_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"energy_saved_pct", "%", "higher"},
	{"wc_norm_cycles", "ratio", "lower"},
}

// perLayer are measured on the traced run only. Metrics of a layer a
// workload does not run read 0 there.
var perLayer = []metricDef{
	// Spans around the calls into each package, self time per pass.
	{"kernels.build_ms", "ms", ""},
	{"kernels.check_ms", "ms", ""},
	{"sim.run_ms", "ms", ""},
	{"sim.record_ms", "ms", ""},
	{"sim.replay_ms", "ms", ""},
	{"sim.ns_per_cycle", "ns", ""},
	{"sim.ns_per_instr", "ns", ""},
	{"exectrace.write_ms", "ms", ""},
	{"exectrace.read_ms", "ms", ""},
	{"exectrace.mb", "MB", ""},
	// serve-campaign spans: the coordinator job (assign→done) is the
	// parent, the HTTP calls under it are its children.
	{"server.submit_ms_p50", "ms", ""},
	{"server.stream_ms_p50", "ms", ""},
	{"server.fetch_ms_p50", "ms", ""},
	{"jobs.queue_wait_ms_p50", "ms", ""},
	{"jobs.run_ms_p50", "ms", ""},
	{"cluster.self_ms_p50", "ms", ""},
	{"serve.miss_p50_ms", "ms", ""},
	{"serve.miss_tail_ms", "ms", ""},
	{"serve.hit_p50_ms", "ms", ""},
	{"serve.restart_ms", "ms", ""},
	// serve-campaign counts.
	{"jobs.repeat_frac", "ratio", ""},
	{"jobs.lru_hit_frac", "ratio", ""},
	{"jobs.store_hit_frac", "ratio", ""},
	{"jobs.coalesced", "count", ""},
	{"jobs.rejected", "count", ""},
	{"store.writes", "count", ""},
	{"store.write_errors", "count", ""},
	{"store.hits", "count", ""},
	{"store.quarantined", "count", ""},
	{"store.mb", "MB", ""},
	{"cluster.failovers", "count", ""},
	{"cluster.worker_down", "count", ""},
	// Simulated-machine counts: exact, identical under perf-only changes.
	{"sched.issue_util", "ratio", ""},
	{"core.comp_ratio", "ratio", ""},
	{"core.comp_acts", "count", ""},
	{"core.decomp_acts", "count", ""},
	{"core.dummy_movs", "count", ""},
	{"regfile.bank_reads", "count", ""},
	{"regfile.bank_writes", "count", ""},
	{"mem.global_txns", "count", ""},
	{"mem.l1_hit_frac", "ratio", ""},
	{"mem.shared_serial_cycles", "count", ""},
	// CPU profile of the traced phase, self time by layer; sums to 100.
	{"cpu.sim.issue_pct", "%", ""},
	{"cpu.sim.pipeline_pct", "%", ""},
	{"cpu.sim.exec_pct", "%", ""},
	{"cpu.sim.replay_pct", "%", ""},
	{"cpu.sim.shard_pct", "%", ""},
	{"cpu.sim.other_pct", "%", ""},
	{"cpu.sched_pct", "%", ""},
	{"cpu.core_pct", "%", ""},
	{"cpu.regfile_pct", "%", ""},
	{"cpu.mem.pipe_pct", "%", ""},
	{"cpu.mem.shared_pct", "%", ""},
	{"cpu.mem.other_pct", "%", ""},
	{"cpu.energy_pct", "%", ""},
	{"cpu.exectrace_pct", "%", ""},
	{"cpu.jobs_pct", "%", ""},
	{"cpu.server_pct", "%", ""},
	{"cpu.store_pct", "%", ""},
	{"cpu.cluster_pct", "%", ""},
	{"cpu.net_pct", "%", ""},
	{"cpu.json_pct", "%", ""},
	{"cpu.runtime_pct", "%", ""},
	{"cpu.other_pct", "%", ""},
	// Traced-versus-untraced throughput loss (sim_cycles_per_s on the sim
	// workloads, jobs_per_s on serve-campaign).
	{"trace.overhead_pct", "%", ""},
}

// outcome is what one workload run produces.
type outcome struct {
	attempted int
	failed    int
	metrics   map[string]float64
	// notes are extra named lines printed before the result: the
	// fingerprint and serve-campaign's latency split.
	notes []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail counts one wrong or failed operation and says why on stderr.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
}

// metricJSON is one entry of the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable lines and, last, the JSON result line
// holding the catalog's metrics (end-to-end untraced, per-layer traced).
func (o *outcome) print(w io.Writer, workload string, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, n := range o.notes {
		fmt.Fprintf(w, "%s %s\n", workload, n)
	}
	frac := 0.0
	if o.attempted > 0 {
		frac = float64(o.failed) / float64(o.attempted)
	}
	fmt.Fprintf(w, "%s metric failed_frac %s ratio (%d of %d)\n", workload, num(frac), o.failed, o.attempted)
	res := resultJSON{
		Correct:   o.failed == 0 && o.attempted > 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v := o.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Fprintf(w, "%s metric %s %s %s\n", workload, d.name, num(v), d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func num(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// median returns the middle of xs (the mean of the two middle values for
// an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p/100*float64(n)-1e-9)))
}

// percentile is the nearest-rank percentile p (0..100] of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// tailPercentiles are tried from the highest down: the tail reported is the
// highest one with at least tailBeyond samples above it.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

const tailBeyond = 10

// tail returns the highest percentile of xs that leaves at least ten
// samples beyond it, and its value; ok is false below eleven samples.
func tail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if len(xs)-rank(len(xs), p) >= tailBeyond {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// resetPeakRSS resets the process's resident high-water mark to its
// current resident size (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

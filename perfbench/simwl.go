package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/energy"
	"repro/internal/exectrace"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// simParams sizes a sim workload; the tests shrink it.
type simParams struct {
	scale   kernels.Scale
	kernels []string
}

// sim-sparse runs kernels whose issue slots are mostly idle (4-19%
// utilisation at medium scale), so per-cycle polling dominates host time.
var sparseParams = simParams{kernels.Medium, []string{"spmv", "histo", "bfs", "gemm_reg", "gemm_warp", "nw"}}

// sweep-dense runs kernels that issue on most cycles (69-79%), so the
// compressor, register file and pipeline do real work every cycle.
var denseParams = simParams{kernels.Medium, []string{"pathfinder", "lud", "kmeans"}}

type namedConfig struct {
	name string
	cfg  sim.Config
}

// executeConfigs are the two designs fig9 and fig13 compare.
func executeConfigs() []namedConfig {
	return []namedConfig{{"warped", sim.DefaultConfig()}, {"baseline", sim.BaselineConfig()}}
}

// recordConfig is the config sweep-dense records under; its replay ("D1",
// the default decompress latency) must reproduce the record byte for byte.
const recordConfig = "D1"

// replayConfigs is the design-space sweep shape: the baseline plus the
// compressor and decompressor latency axes of paper Figs 20 and 21.
func replayConfigs() []namedConfig {
	with := func(name string, f func(*sim.Config)) namedConfig {
		c := sim.DefaultConfig()
		f(&c)
		return namedConfig{name, c}
	}
	return []namedConfig{
		{"baseline", sim.BaselineConfig()},
		with("C1", func(c *sim.Config) { c.CompressLatency = 1 }),
		with("C4", func(c *sim.Config) { c.CompressLatency = 4 }),
		with("C8", func(c *sim.Config) { c.CompressLatency = 8 }),
		with(recordConfig, func(c *sim.Config) { c.DecompressLatency = 1 }),
		with("D4", func(c *sim.Config) { c.DecompressLatency = 4 }),
		with("D8", func(c *sim.Config) { c.DecompressLatency = 8 }),
	}
}

// simRun is one run of sim-sparse or sweep-dense.
type simRun struct {
	p     simParams
	dense bool
	out   *outcome
	rng   *rand.Rand
	tr    *tracer // nil outside the traced phase

	// first holds each result's warped.sim.result/v1 bytes from the
	// first pass; later passes must reproduce them exactly.
	first   map[string][]byte
	results map[string]*sim.Result
	configs map[string]sim.Config

	opDur      map[string][]float64 // held host seconds of each op, by op key
	opRSS      map[string][]float64 // peak resident MB of each op, by op key
	ops        int                  // ops completed in the current phase
	traceBytes int64                // encoded trace bytes in the current phase

	// mutate, when set, is applied to every replayed result before it is
	// checked; the tests use it to prove a wrong replay is counted.
	mutate func(key string, res *sim.Result)
}

func newSimRun(p simParams, dense bool, seed int64, out *outcome) (*simRun, error) {
	for _, k := range p.kernels {
		if _, ok := kernels.ByName(k); !ok {
			return nil, fmt.Errorf("unknown kernel %q", k)
		}
	}
	return &simRun{
		p: p, dense: dense, out: out,
		rng:     rand.New(rand.NewSource(seed)),
		first:   map[string][]byte{},
		results: map[string]*sim.Result{},
		configs: map[string]sim.Config{},
		opDur:   map[string][]float64{},
		opRSS:   map[string][]float64{},
	}, nil
}

// opsPerPass counts the ops one pass times (simulations plus, on
// sweep-dense, the trace encode and decode) and the simulations among them.
func (r *simRun) opsPerPass() (ops, sims int) {
	n := len(r.p.kernels)
	if r.dense {
		return n * (3 + len(replayConfigs())), n * (1 + len(replayConfigs()))
	}
	return n * len(executeConfigs()), n * len(executeConfigs())
}

// setup builds every input and GPU one pass needs: the sim workloads'
// set-up cost as a user pays it before the first simulation.
func (r *simRun) setup() error {
	for _, k := range r.p.kernels {
		b, _ := kernels.ByName(k)
		cfgs := executeConfigs()
		if r.dense {
			cfgs = replayConfigs()
		}
		for _, nc := range cfgs {
			g, err := sim.New(nc.cfg)
			if err != nil {
				return err
			}
			if r.dense && nc.name != recordConfig {
				continue // replays need a GPU but no inputs
			}
			if _, err := b.Build(g.Mem(), r.p.scale); err != nil {
				return fmt.Errorf("%s: build: %w", k, err)
			}
		}
	}
	return nil
}

// timeSetup runs setup n times and returns the median held time.
func (r *simRun) timeSetup(n int) (float64, error) {
	var t setupTimer
	for i := 0; i < n; i++ {
		if err := t.time(r.setup); err != nil {
			return 0, err
		}
	}
	runtime.GC() // set-up garbage is not the first pass's cost
	return t.median(), nil
}

// phase runs passes until the deadline, always finishing at least one
// pass and stopping between ops once one has finished. It returns the
// phase's throughput in simulated cycles and simulations per held second.
func (r *simRun) phase(deadline time.Time) (cyclesPerS, simsPerS float64) {
	r.opDur = map[string][]float64{}
	r.opRSS = map[string][]float64{}
	r.ops, r.traceBytes = 0, 0
	start := hostNow()
	stop := func() bool { return false }
	for pass := 0; ; pass++ {
		if pass > 0 {
			stop = func() bool { return time.Now().After(deadline) }
			if stop() {
				break
			}
		}
		if r.dense {
			r.densePass(stop)
		} else {
			r.sparsePass(stop)
		}
	}
	wall, held := start.since()
	r.out.notef("host steal_pct %s (share of the phase's wall time the CPUs were taken away)", num(100*(1-held.Seconds()/wall.Seconds())))
	// A pass's host time is estimated as the sum over its ops of each op's
	// median held time in the phase, which copes with a phase that ends
	// mid-pass. Not the fastest: the steal counters tick in 10 ms, so now
	// and then a short op's held time is corrected by a tick too much, and
	// the fastest of its samples is that one.
	var passS float64
	for _, secs := range r.opDur {
		passS += median(secs)
	}
	var cycles uint64
	for _, res := range r.results {
		cycles += res.Cycles
	}
	_, sims := r.opsPerPass()
	if passS == 0 {
		return 0, 0
	}
	return float64(cycles) / passS, float64(sims) / passS
}

// timed runs fn as the op named key and records its held host time and
// its peak resident memory. Each op starts, untimed, from a collected heap
// returned to the OS and a reset high-water mark, as a simulation does in
// a fresh warpedsim process.
func (r *simRun) timed(key string, fn func() error) error {
	debug.FreeOSMemory()
	resetPeakRSS() // runSim checked that it works
	start := hostNow()
	err := fn()
	_, held := start.since()
	r.opDur[key] = append(r.opDur[key], held.Seconds())
	if mb, err := peakRSSMB(); err == nil {
		r.opRSS[key] = append(r.opRSS[key], mb)
	}
	r.ops++
	return err
}

// peakRSS is the largest over ops of an op's median peak resident memory:
// the memory the hungriest simulation of the workload needs.
func (r *simRun) peakRSS() float64 {
	var peak float64
	for _, mbs := range r.opRSS {
		peak = max(peak, median(mbs))
	}
	return peak
}

// sparsePass executes every (kernel, config) pair once, in a seeded order,
// host-checking each output.
func (r *simRun) sparsePass(stop func() bool) {
	type task struct {
		b  *kernels.Benchmark
		nc namedConfig
	}
	var tasks []task
	for _, k := range r.p.kernels {
		b, _ := kernels.ByName(k)
		for _, nc := range executeConfigs() {
			tasks = append(tasks, task{b, nc})
		}
	}
	r.rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	for _, t := range tasks {
		if stop() {
			return
		}
		key := t.b.Name + "/" + t.nc.name
		var res *sim.Result
		err := r.timed(key, func() error {
			var err error
			res, _, err = r.executeLaunch(t.b, t.nc.cfg, false)
			return err
		})
		r.out.attempted++
		if err != nil {
			r.out.fail("%s: %v", key, err)
			continue
		}
		r.observe(key, t.nc.cfg, res)
	}
}

// executeLaunch builds the kernel's inputs on a fresh GPU, runs (or
// records) the launch and checks the output against the host reference.
func (r *simRun) executeLaunch(b *kernels.Benchmark, cfg sim.Config, record bool) (*sim.Result, *exectrace.Launch, error) {
	g, err := sim.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var inst *kernels.Instance
	if err := r.tr.do("kernels.build", func() error {
		inst, err = b.Build(g.Mem(), r.p.scale)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("build: %w", err)
	}
	var res *sim.Result
	var lt *exectrace.Launch
	if record {
		err = r.tr.do("sim.record", func() error {
			res, lt, err = g.Record(inst.Launch)
			return err
		})
	} else {
		err = r.tr.do("sim.run", func() error {
			res, err = g.Run(inst.Launch)
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	if err := r.tr.do("kernels.check", func() error { return inst.Check(g.Mem()) }); err != nil {
		return nil, nil, fmt.Errorf("wrong output: %w", err)
	}
	return res, lt, nil
}

// densePass records each kernel once under the warped config, round-trips
// the trace through the wire format, and replays it under every sweep
// config. Kernel order and replay order are seeded.
func (r *simRun) densePass(stop func() bool) {
	ks := append([]string(nil), r.p.kernels...)
	r.rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
	rcs := replayConfigs()
	var recCfg sim.Config
	for _, nc := range rcs {
		if nc.name == recordConfig {
			recCfg = nc.cfg
		}
	}
	for _, k := range ks {
		if stop() {
			return
		}
		b, _ := kernels.ByName(k)
		key := k + "/record"
		var rec *sim.Result
		var lt *exectrace.Launch
		err := r.timed(key, func() error {
			var err error
			rec, lt, err = r.executeLaunch(b, recCfg, true)
			return err
		})
		r.out.attempted++
		if err != nil {
			r.out.fail("%s: %v", key, err)
			continue
		}
		recBytes := r.observe(key, recCfg, rec)

		var buf bytes.Buffer
		var decoded *exectrace.Trace
		err = r.timed(k+"/write", func() error {
			return r.tr.do("exectrace.write", func() error {
				return exectrace.Write(&buf, &exectrace.Trace{
					Meta:     exectrace.Meta{Benchmark: k, Scale: r.p.scale.String()},
					Launches: []*exectrace.Launch{lt},
				})
			})
		})
		if err == nil {
			r.traceBytes += int64(buf.Len())
			err = r.timed(k+"/read", func() error {
				return r.tr.do("exectrace.read", func() error {
					var err error
					decoded, err = exectrace.Read(&buf)
					return err
				})
			})
		}
		if err == nil && len(decoded.Launches) != 1 {
			err = fmt.Errorf("decoded %d launches, want 1", len(decoded.Launches))
		}
		if err != nil {
			r.out.attempted++
			r.out.fail("%s: trace round trip: %v", k, err)
			continue
		}

		order := r.rng.Perm(len(rcs))
		for _, i := range order {
			if stop() {
				return
			}
			nc := rcs[i]
			rkey := k + "/replay/" + nc.name
			var res *sim.Result
			err := r.timed(rkey, func() error {
				g, err := sim.New(nc.cfg)
				if err != nil {
					return err
				}
				return r.tr.do("sim.replay", func() error {
					res, err = g.Replay(decoded.Launches[0])
					return err
				})
			})
			r.out.attempted++
			if err != nil {
				r.out.fail("%s: %v", rkey, err)
				continue
			}
			if r.mutate != nil {
				r.mutate(rkey, res)
			}
			got := r.observe(rkey, nc.cfg, res)
			if got != nil && nc.name == recordConfig && !bytes.Equal(got, recBytes) {
				r.out.fail("%s: replay under the record's own config differs from the record", rkey)
			}
		}
	}
}

// observe checks a result against the first pass's bytes for the same key
// (counting a mismatch as a failure) and returns its result/v1 bytes, nil
// when it failed.
func (r *simRun) observe(key string, cfg sim.Config, res *sim.Result) []byte {
	data, err := json.Marshal(res)
	if err != nil {
		r.out.fail("%s: marshal result: %v", key, err)
		return nil
	}
	if prev, ok := r.first[key]; ok {
		if !bytes.Equal(prev, data) {
			r.out.fail("%s: result differs from the first pass", key)
			return nil
		}
		return data
	}
	r.first[key] = data
	r.results[key] = res
	r.configs[key] = cfg
	return data
}

// runSim runs a sim workload for the given seconds and fills out. Traced,
// it spends the first half untraced and the second half traced, and
// reports per-layer metrics from the second half.
func runSim(p simParams, dense bool, seed int64, seconds float64, traced bool, workdir string, out *outcome) error {
	r, err := newSimRun(p, dense, seed, out)
	if err != nil {
		return err
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	setupS, err := r.timeSetup(setupRuns)
	if err != nil {
		return err
	}
	out.metrics["setup_s"] = setupS

	start := time.Now()
	if !traced {
		cps, jps := r.phase(start.Add(dur(seconds)))
		out.metrics["sim_cycles_per_s"] = cps
		out.metrics["jobs_per_s"] = jps
	} else {
		plainCPS, _ := r.phase(start.Add(dur(seconds / 2)))
		r.tr = &tracer{}
		prof, err := startProfile(workdir)
		if err != nil {
			return err
		}
		tracedCPS, _ := r.phase(time.Now().Add(dur(seconds / 2)))
		if err := prof.stop(out.metrics); err != nil {
			return err
		}
		out.metrics["trace.overhead_pct"] = 100 * (plainCPS - tracedCPS) / plainCPS
		r.layerMetrics()
	}
	r.simulatedMetrics()
	out.metrics["peak_rss_mb"] = r.peakRSS()
	return nil
}

// setupRuns is how many times a run sets up, reporting the median: one
// set-up takes milliseconds, so a single one is mostly noise.
const setupRuns = 21

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// layerMetrics turns the traced phase's spans into self time per pass.
func (r *simRun) layerMetrics() {
	ops, _ := r.opsPerPass()
	passes := float64(r.ops) / float64(ops)
	m := r.out.metrics
	perPass := func(name string) float64 { return float64(r.tr.total(name).Microseconds()) / 1e3 / passes }
	for _, n := range []string{"kernels.build", "kernels.check", "sim.run", "sim.record", "sim.replay", "exectrace.write", "exectrace.read"} {
		m[n+"_ms"] = perPass(n)
	}
	m["exectrace.mb"] = float64(r.traceBytes) / 1e6 / passes

	var cycles, instrs uint64
	for _, res := range r.results {
		cycles += res.Cycles
		instrs += res.Stats.Instructions
	}
	simNS := float64((r.tr.total("sim.run") + r.tr.total("sim.record") + r.tr.total("sim.replay")).Nanoseconds()) / passes
	m["sim.ns_per_cycle"] = simNS / float64(cycles)
	m["sim.ns_per_instr"] = simNS / float64(instrs)
}

// simulatedMetrics derives the paper's two headline numbers, the exact
// simulated-machine counts and the fingerprint from the first pass's
// results.
func (r *simRun) simulatedMetrics() {
	m := r.out.metrics
	var slots, instrs, orig, comp, l1h, l1m uint64
	for key, res := range r.results {
		cfg := r.configs[key]
		st := &res.Stats
		slots += res.Cycles * uint64(cfg.NumSMs*cfg.SchedulersPerSM)
		instrs += st.Instructions
		for ph := range st.WriteOrigBanks {
			orig += st.WriteOrigBanks[ph]
			comp += st.WriteCompBanks[ph]
		}
		m["core.comp_acts"] += float64(st.CompActs)
		m["core.decomp_acts"] += float64(st.DecompActs)
		m["core.dummy_movs"] += float64(st.DummyMovs)
		m["regfile.bank_reads"] += float64(st.RF.BankReads)
		m["regfile.bank_writes"] += float64(st.RF.BankWrites)
		m["mem.global_txns"] += float64(st.GlobalTxns)
		m["mem.shared_serial_cycles"] += float64(st.SharedSerializationCycles)
		l1h += st.L1Hits
		l1m += st.L1Misses
	}
	m["sched.issue_util"] = ratio(instrs, slots)
	m["core.comp_ratio"] = ratio(orig, comp)
	m["mem.l1_hit_frac"] = ratio(l1h, l1h+l1m)

	warped, base := "/warped", "/baseline"
	if r.dense {
		warped, base = "/record", "/replay/baseline"
	}
	pairs := map[string][2]*sim.Result{}
	for _, k := range r.p.kernels {
		w, b := r.results[k+warped], r.results[k+base]
		if w != nil && b != nil {
			pairs[k] = [2]*sim.Result{w, b}
		}
	}
	m["energy_saved_pct"], m["wc_norm_cycles"] = fig9fig13(pairs)
	r.out.notef("metric wc_overhead_pct %s %%", num(100*(m["wc_norm_cycles"]-1)))
	keys := make([]string, 0, len(r.first))
	var cycles uint64
	for k, res := range r.results {
		keys = append(keys, k)
		cycles += res.Cycles
	}
	sort.Strings(keys)
	r.out.notef("fingerprint sha256=%s results=%d cycles=%d", fingerprint(keys, r.first), len(keys), cycles)
}

// fig9fig13 computes, as the fig9 and fig13 exhibits do, the mean over
// kernels of warped/baseline register-file energy as percent saved, and of
// warped/baseline cycles (fig13's normalized cycles; the overhead in
// percent is 100 × (normCycles − 1)). pairs maps kernel → {warped, baseline}.
func fig9fig13(pairs map[string][2]*sim.Result) (savedPct, normCycles float64) {
	if len(pairs) == 0 {
		return 0, 0
	}
	params := energy.DefaultParams()
	var e, c float64
	for _, p := range pairs {
		e += energy.Compute(params, p[0].Energy).TotalPJ() / energy.Compute(params, p[1].Energy).TotalPJ()
		c += float64(p[0].Cycles) / float64(p[1].Cycles)
	}
	n := float64(len(pairs))
	return 100 * (1 - e/n), c / n
}

// fingerprint hashes the given results' warped.sim.result/v1 bytes in
// the order of keys, so two runs of one model print the same line.
func fingerprint(keys []string, data map[string][]byte) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write(data[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

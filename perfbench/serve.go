package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/kernels"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/sweep"
)

// serveSpec sizes serve-campaign; the tests shrink it.
type serveSpec struct {
	scale      kernels.Scale
	benchmarks []string // nil means every registered kernel
}

var serveParams = serveSpec{scale: kernels.Small}

// serveBoots is how many fleet boots set-up time is the median of. A boot
// takes about 2 ms, so many are cheap, and their median is steadier.
const serveBoots = 201

// rssCampaigns is how many campaigns, from the first, peak memory covers.
// The workers' memory grows with the distinct results they hold, so a
// fixed amount of work keeps it from growing with throughput; ten
// campaigns end before the restart even at half the usual speed.
const rssCampaigns = 10

// serveConcurrency is the coordinator's closed loop: jobs in flight across
// the two-worker fleet, so at most one simulation per worker.
const serveConcurrency = 2

// workerConfig builds a worker's jobs.Manager the way cmd/warpedd does from
// its flag defaults (-queue 64, -cache 1024, -retain 1024, -scale small,
// -retries 0, -retry-backoff 0, -watchdog 0, -sm-parallel 0,
// -trace-budget 0, no -tenants), with one exception: -parallel 1, so the
// two-worker fleet runs at most two simulations at once. A zero-valued
// jobs.Config would disable the LRU (CacheSize 0) and measure another
// program.
func workerConfig(scale kernels.Scale, st *store.Store) jobs.Config {
	return jobs.Config{
		Workers:    1,
		QueueDepth: 64,
		CacheSize:  1024,
		RetainJobs: 1024,
		Scale:      scale,
		Store:      st,
	}
}

// worker is one in-process warpedd: manager, HTTP API and disk store.
type worker struct {
	addr   string
	mgr    *jobs.Manager
	st     *store.Store
	srv    *http.Server
	served chan error
}

// startWorker boots a worker on addr over the store directory dir.
func startWorker(addr, dir string, scale kernels.Scale) (*worker, error) {
	st, err := store.Open(dir, store.Options{Log: log.Printf}) // -store-budget 0
	if err != nil {
		return nil, err
	}
	mgr := jobs.NewManager(context.Background(), workerConfig(scale, st))
	api := server.New(mgr)
	api.SetSSEKeepAlive(15 * time.Second) // -sse-keepalive default
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		mgr.Close()
		return nil, err
	}
	w := &worker{addr: ln.Addr().String(), mgr: mgr, st: st, srv: &http.Server{Handler: api.Handler()}, served: make(chan error, 1)}
	go func() { w.served <- w.srv.Serve(ln) }()
	return w, nil
}

// stop drains and shuts the worker down as warpedd does on SIGTERM, and
// returns its final counters.
func (w *worker) stop() (jobs.Stats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute) // -drain-timeout
	defer cancel()
	if err := w.mgr.Drain(ctx); err != nil {
		return jobs.Stats{}, err
	}
	st := w.mgr.Stats()
	w.mgr.Close()
	if err := w.srv.Shutdown(ctx); err != nil {
		return st, err
	}
	if err := <-w.served; !errors.Is(err, http.ErrServerClosed) {
		return st, err
	}
	return st, nil
}

// fleet is the two workers behind fixed addresses.
type fleet struct {
	workers []*worker
	dirs    []string
	scale   kernels.Scale
	// stats sums the counters of every worker lifetime stopped so far.
	stats jobs.Stats
}

// bootFleet starts one worker per store directory on loopback ports and
// waits until both answer /readyz.
func bootFleet(dirs []string, scale kernels.Scale) (*fleet, *cluster.Registry, error) {
	f := &fleet{dirs: dirs, scale: scale}
	for _, dir := range dirs {
		w, err := startWorker("127.0.0.1:0", dir, scale)
		if err != nil {
			f.stop()
			return nil, nil, err
		}
		f.workers = append(f.workers, w)
	}
	reg, err := cluster.NewRegistry(f.urls(), cluster.RegistryConfig{Log: log.Printf})
	if err != nil {
		f.stop()
		return nil, nil, err
	}
	if err := ready(reg); err != nil {
		f.stop()
		return nil, nil, err
	}
	return f, reg, nil
}

// ready probes the workers until both answer /readyz. A background probe
// that caught a worker mid-restart quarantines it briefly, so one pass is
// not enough.
func ready(reg *cluster.Registry) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		reg.ProbeOnce(context.Background())
		var down []string
		for _, w := range reg.Snapshot() {
			if !w.Healthy {
				down = append(down, w.URL)
			}
		}
		if len(down) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("workers not ready: %v", down)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (f *fleet) urls() []string {
	var us []string
	for _, w := range f.workers {
		us = append(us, "http://"+w.addr)
	}
	return us
}

// stop stops every worker, adding its counters to f.stats.
func (f *fleet) stop() error {
	var errs []error
	for _, w := range f.workers {
		st, err := w.stop()
		errs = append(errs, err)
		addStats(&f.stats, st)
	}
	f.workers = nil
	return errors.Join(errs...)
}

// restart stops both workers and starts fresh processes' worth of state
// on the same store directories behind the same addresses.
func (f *fleet) restart(reg *cluster.Registry) error {
	addrs := make([]string, len(f.workers))
	for i, w := range f.workers {
		addrs[i] = w.addr
	}
	if err := f.stop(); err != nil {
		return err
	}
	for i, dir := range f.dirs {
		w, err := startWorker(addrs[i], dir, f.scale)
		if err != nil {
			return err
		}
		f.workers = append(f.workers, w)
	}
	return ready(reg)
}

func addStats(dst *jobs.Stats, s jobs.Stats) {
	dst.CacheHits += s.CacheHits
	dst.StoreHits += s.StoreHits
	dst.Coalesced += s.Coalesced
	dst.Rejected += s.Rejected
	dst.StoreWrites += s.StoreWrites
	dst.StoreWriteErrors += s.StoreWriteErrors
	dst.StoreQuarantined += s.StoreQuarantined
}

// campaigns generates the seeded series of campaigns: the first runs the
// four headline configs, each later one a fresh config plus three configs
// served before, so about three quarters of all jobs repeat an earlier
// (benchmark, config) pair.
type campaigns struct {
	rng  *rand.Rand
	used []namedConfig
	sigs map[string]bool
}

func (g *campaigns) next() ([]namedConfig, error) {
	if len(g.used) == 0 {
		fpc, static := sim.DefaultConfig(), sim.DefaultConfig()
		fpc.Compression, static.Compression = "fpc", "static"
		for _, nc := range []namedConfig{
			{"warped", sim.DefaultConfig()}, {"baseline", sim.BaselineConfig()},
			{"fpc", fpc}, {"static", static},
		} {
			g.sigs[experiments.ConfigSignature(&nc.cfg)] = true
			g.used = append(g.used, nc)
		}
		return append([]namedConfig(nil), g.used...), nil
	}
	fresh, err := g.fresh()
	if err != nil {
		return nil, err
	}
	out := []namedConfig{fresh}
	for _, i := range g.rng.Perm(len(g.used))[:3] {
		out = append(out, g.used[i])
	}
	g.used = append(g.used, fresh)
	g.rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// fresh draws a valid config whose signature no campaign has used yet.
func (g *campaigns) fresh() (namedConfig, error) {
	for {
		c := sim.DefaultConfig()
		c.Compression = []string{"bdi", "fpc", "static"}[g.rng.Intn(3)]
		c.Scheduler = []string{"gto", "lrr"}[g.rng.Intn(2)]
		c.CompressLatency = 1 + g.rng.Intn(8)
		c.DecompressLatency = 1 + g.rng.Intn(8)
		c.BankWakeupLatency = 1 + g.rng.Intn(30)
		c.Compressors = 1 + g.rng.Intn(4)
		c.Decompressors = 1 + g.rng.Intn(8)
		if err := c.Validate(); err != nil {
			return namedConfig{}, err
		}
		sig := experiments.ConfigSignature(&c)
		if !g.sigs[sig] {
			g.sigs[sig] = true
			return namedConfig{fmt.Sprintf("cfg%03d", len(g.used)), c}, nil
		}
	}
}

// specFor turns one campaign into the sweep spec a warpedctl user would
// write: every config in full, crossed with every benchmark.
func specFor(i int, benchmarks []string, cfgs []namedConfig) (*sweep.Spec, error) {
	type cfgJSON struct {
		Name      string     `json:"name"`
		Overrides sim.Config `json:"overrides"`
	}
	doc := struct {
		Name       string    `json:"name"`
		Benchmarks []string  `json:"benchmarks"`
		Configs    []cfgJSON `json:"configs"`
	}{Name: fmt.Sprintf("campaign-%03d", i), Benchmarks: benchmarks}
	for _, nc := range cfgs {
		doc.Configs = append(doc.Configs, cfgJSON{nc.name, nc.cfg})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return sweep.Parse(data)
}

// jobTimes is the coordinator's view of one job: assign → done.
type jobTimes struct {
	assign, done time.Time
	hit          bool
}

// events records coordinator progress events.
type events struct {
	mu         sync.Mutex
	jobs       map[string]*jobTimes // by "config/benchmark"
	failovers  int
	workerDown int
}

func (e *events) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.jobs = map[string]*jobTimes{}
}

func (e *events) on(ev cluster.Event) {
	now := time.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.jobs[ev.Job]
	if j == nil {
		j = &jobTimes{}
		e.jobs[ev.Job] = j
	}
	switch ev.Kind {
	case "assign":
		if j.assign.IsZero() {
			j.assign = now
		}
	case "cache-hit":
		j.hit = true
	case "done", "failed":
		j.done = now
	case "failover":
		e.failovers++
	case "worker-down":
		e.workerDown++
	}
}

// runServe runs serve-campaign: a two-worker fleet driven by a closed-loop
// coordinator through a series of campaigns, both workers restarting on
// their stores halfway. Traced, it runs the workload twice, each for half
// the time: untraced, then with HTTP spans and a CPU profile.
func runServe(p serveSpec, seed int64, seconds float64, traced bool, workdir string, out *outcome) error {
	if p.benchmarks == nil {
		p.benchmarks = kernels.Names()
	}
	// Fleet boot is the set-up cost; boot serveBoots times, keep the last.
	// Boots alternate between two pairs of store directories: after the
	// first two, a boot opens an existing, empty store, as a restarted
	// warpedd does. (Creating fresh directories made every boot slower
	// than the last.)
	var boots setupTimer
	var f *fleet
	var reg *cluster.Registry
	for i := 0; i < serveBoots; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		dirs := []string{
			filepath.Join(workdir, fmt.Sprintf("boot%d-a", i%2)),
			filepath.Join(workdir, fmt.Sprintf("boot%d-b", i%2)),
		}
		if err := boots.time(func() (err error) {
			f, reg, err = bootFleet(dirs, p.scale)
			return err
		}); err != nil {
			return err
		}
	}
	out.metrics["setup_s"] = boots.median()
	// Peak memory is the serving's, not the boots'.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		f.stop()
		return err
	}

	if !traced {
		r := &serveRun{p: p, out: out, rng: rand.New(rand.NewSource(seed))}
		err := r.run(f, reg, seconds)
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		r.report(f.stats)
		if r.rssMB == 0 { // fewer than rssCampaigns campaigns ran
			if r.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
		}
		out.metrics["peak_rss_mb"] = r.rssMB
	} else {
		plain := &serveRun{p: p, out: newOutcome(), rng: rand.New(rand.NewSource(seed))}
		err := plain.run(f, reg, seconds/2)
		if serr := f.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return err
		}
		plain.report(f.stats)
		out.attempted += plain.out.attempted
		out.failed += plain.out.failed

		dirs := []string{filepath.Join(workdir, "traced-a"), filepath.Join(workdir, "traced-b")}
		f, reg, err = bootFleet(dirs, p.scale)
		if err != nil {
			return err
		}
		r := &serveRun{p: p, out: out, rng: rand.New(rand.NewSource(seed)), spans: &httpSpans{}}
		prof, err := startProfile(workdir)
		if err != nil {
			f.stop()
			return err
		}
		err = r.run(f, reg, seconds/2)
		if serr := f.stop(); err == nil {
			err = serr
		}
		if perr := prof.stop(out.metrics); err == nil {
			err = perr
		}
		if err != nil {
			return err
		}
		r.report(f.stats)
		r.layerMetrics()
		pj, tj := plain.out.metrics["jobs_per_s"], out.metrics["jobs_per_s"]
		out.metrics["trace.overhead_pct"] = 100 * (pj - tj) / pj
	}
	return nil
}

// serveRun is one timed series of campaigns against a booted fleet.
type serveRun struct {
	p     serveSpec
	out   *outcome
	rng   *rand.Rand
	spans *httpSpans // nil when untraced

	jobs, repeats int
	// jobRates and cycleRates hold each campaign's jobs and simulated
	// cycles per held second; the run reports their medians.
	jobRates, cycleRates []float64
	wallS, heldS         float64 // campaigns' wall and held seconds
	restartMS            float64
	rssMB                float64 // peak resident MB over the first rssCampaigns campaigns
	hitMS, missMS        []float64
	first                map[string][sha256.Size]byte // result hash by benchmark|signature, as first served
	firstCampaign        []*cluster.Entry
	ev                   events

	// traced only: per-job child spans and the manager's job phases.
	selfMS, queueMS, runMS []float64
}

func (r *serveRun) run(f *fleet, reg *cluster.Registry, seconds float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg.Start(ctx) // as warpedctl does: health probes while the sweep runs

	tr := http.DefaultTransport.(*http.Transport).Clone()
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	if r.spans != nil {
		client.Transport = &timedTransport{base: tr, spans: r.spans}
	}
	coord := cluster.New(reg, cluster.Options{Concurrency: serveConcurrency, Client: client, Progress: r.ev.on})

	gen := &campaigns{rng: r.rng, sigs: map[string]bool{}}
	r.first = map[string][sha256.Size]byte{}
	start := time.Now()
	deadline, restartAt := start.Add(dur(seconds)), start.Add(dur(seconds/2))
	// Run whole campaigns until the deadline, restarting the fleet once
	// past halfway; at least one campaign runs after the restart.
	restarted, afterRestart := false, 0
	for i := 0; afterRestart == 0 || time.Now().Before(deadline); i++ {
		cfgs, err := gen.next()
		if err != nil {
			return err
		}
		spec, err := specFor(i, r.p.benchmarks, cfgs)
		if err != nil {
			return err
		}
		r.ev.reset()
		r.spans.reset()
		t0 := hostNow()
		rep, err := coord.RunSweep(ctx, spec)
		if err != nil {
			return err
		}
		wall, held := t0.since()
		r.wallS += wall.Seconds()
		r.heldS += held.Seconds()
		secs := held.Seconds()
		missCycles, err := r.check(rep, i == 0)
		if err != nil {
			return err
		}
		r.jobRates = append(r.jobRates, float64(len(rep.Entries))/secs)
		r.cycleRates = append(r.cycleRates, float64(missCycles)/secs)
		if r.spans != nil {
			r.collectSpans(f, spec)
		}
		if i+1 == rssCampaigns {
			if r.rssMB, err = peakRSSMB(); err != nil {
				return err
			}
		}
		if restarted {
			afterRestart++
		} else if time.Now().After(restartAt) {
			t0 := time.Now()
			if err := f.restart(reg); err != nil {
				return err
			}
			r.restartMS = float64(time.Since(t0).Microseconds()) / 1e3
			tr.CloseIdleConnections()
			restarted = true
		}
	}
	r.out.metrics["store.mb"] = 0
	for _, w := range f.workers {
		r.out.metrics["store.mb"] += float64(w.st.Stats().Bytes) / 1e6
	}
	return nil
}

// check counts the campaign's jobs, fails every entry that errored or
// differs from the bytes its (benchmark, signature) was first served
// with, and collects the coordinator's latencies. It returns the simulated
// cycles of the jobs that missed every cache.
func (r *serveRun) check(rep *cluster.Report, first bool) (missCycles uint64, err error) {
	r.out.attempted += len(rep.Entries)
	r.jobs += len(rep.Entries)
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if e.Error != "" { // one of the rep.Failed() entries
			r.out.fail("%s/%s: %s", e.Config, e.Benchmark, e.Error)
			continue
		}
		data, err := json.Marshal(e.Result)
		if err != nil {
			return 0, err
		}
		key, sum := e.Benchmark+"|"+e.Signature, sha256.Sum256(data)
		if prev, ok := r.first[key]; ok {
			r.repeats++
			if prev != sum {
				r.out.fail("%s/%s: result differs from the one first served for %s", e.Config, e.Benchmark, key)
			}
		} else {
			r.first[key] = sum
		}
		j := r.ev.jobs[e.Config+"/"+e.Benchmark]
		if j == nil || j.assign.IsZero() || j.done.IsZero() {
			return 0, fmt.Errorf("no assign/done events for %s/%s", e.Config, e.Benchmark)
		}
		ms := float64(j.done.Sub(j.assign).Microseconds()) / 1e3
		if j.hit {
			r.hitMS = append(r.hitMS, ms)
		} else {
			r.missMS = append(r.missMS, ms)
			missCycles += e.Result.Cycles
		}
		if first {
			r.firstCampaign = append(r.firstCampaign, e)
		}
	}
	return missCycles, nil
}

// report fills the end-to-end metrics and the printed shares.
func (r *serveRun) report(total jobs.Stats) {
	m := r.out.metrics
	m["jobs_per_s"] = median(r.jobRates)
	m["sim_cycles_per_s"] = median(r.cycleRates)
	r.out.notef("host steal_pct %s (share of the campaigns' wall time the CPUs were taken away)", num(100*(1-r.heldS/r.wallS)))
	m["serve.restart_ms"] = r.restartMS

	var keys []string
	data := map[string][]byte{}
	byName := map[string]*cluster.Entry{}
	for _, e := range r.firstCampaign {
		k := e.Config + "/" + e.Benchmark
		keys = append(keys, k)
		data[k], _ = json.Marshal(e.Result) // marshalled once already in check
		byName[k] = e
	}
	pairs := map[string][2]*sim.Result{}
	for _, b := range r.p.benchmarks {
		w, base := byName["warped/"+b], byName["baseline/"+b]
		if w != nil && base != nil {
			pairs[b] = [2]*sim.Result{w.Result, base.Result}
		}
	}
	m["energy_saved_pct"], m["wc_norm_cycles"] = fig9fig13(pairs)
	r.out.notef("metric wc_overhead_pct %s %%", num(100*(m["wc_norm_cycles"]-1)))

	jobsF := float64(r.jobs)
	m["jobs.repeat_frac"] = float64(r.repeats) / jobsF
	m["jobs.lru_hit_frac"] = float64(total.CacheHits) / jobsF
	m["jobs.store_hit_frac"] = float64(total.StoreHits) / jobsF
	m["jobs.coalesced"] = float64(total.Coalesced)
	m["jobs.rejected"] = float64(total.Rejected)
	m["store.writes"] = float64(total.StoreWrites)
	m["store.write_errors"] = float64(total.StoreWriteErrors)
	m["store.hits"] = float64(total.StoreHits)
	m["store.quarantined"] = float64(total.StoreQuarantined)
	m["cluster.failovers"] = float64(r.ev.failovers)
	m["cluster.worker_down"] = float64(r.ev.workerDown)
	m["serve.miss_p50_ms"] = median(r.missMS)
	m["serve.hit_p50_ms"] = median(r.hitMS)

	o := r.out
	o.notef("fingerprint sha256=%s results=%d (first campaign, job order)", fingerprint(keys, data), len(keys))
	o.notef("shares jobs=%d repeat=%.4f lru_hit=%.4f store_hit=%.4f", r.jobs, m["jobs.repeat_frac"], m["jobs.lru_hit_frac"], m["jobs.store_hit_frac"])
	o.notef("metric miss_p50_ms %s ms (n=%d)", num(m["serve.miss_p50_ms"]), len(r.missMS))
	if p, v, ok := tail(r.missMS); ok {
		m["serve.miss_tail_ms"] = v
		o.notef("metric miss_tail_ms %s ms (p%s, n=%d)", num(v), num(p), len(r.missMS))
	} else {
		o.notef("metric miss_tail_ms n/a (n=%d, fewer than %d beyond any percentile)", len(r.missMS), tailBeyond)
	}
	o.notef("metric hit_p50_ms %s ms (n=%d)", num(m["serve.hit_p50_ms"]), len(r.hitMS))
}

// httpSpans collects the coordinator's HTTP calls, timed from the request
// to the close of its response body, by worker and job id.
type httpSpans struct {
	mu sync.Mutex
	// calls by "host job-id", then by kind (submit, stream, fetch).
	calls map[string]map[string]time.Duration
	// keys maps "host job-id" to the job's benchmark|signature.
	keys map[string]string
	// samples holds every call's milliseconds by kind, across campaigns.
	samples map[string][]float64
}

func (s *httpSpans) reset() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls = map[string]map[string]time.Duration{}
	s.keys = map[string]string{}
}

func (s *httpSpans) add(host, id, kind string, d time.Duration, view *jobs.JobView) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if view != nil {
		id = view.ID
		s.keys[host+" "+id] = view.Benchmark + "|" + view.Signature
	}
	c := s.calls[host+" "+id]
	if c == nil {
		c = map[string]time.Duration{}
		s.calls[host+" "+id] = c
	}
	c[kind] += d
}

// timedTransport is the RoundTripper on cluster.Options.Client that times
// each job's calls into the server.
type timedTransport struct {
	base  http.RoundTripper
	spans *httpSpans
}

var jobPath = regexp.MustCompile(`^/v1/jobs/([^/]+)(/events)?$`)

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, id := "", ""
	switch m := jobPath.FindStringSubmatch(req.URL.Path); {
	case req.Method == http.MethodPost && req.URL.Path == "/v1/jobs":
		kind = "submit"
	case m != nil && m[2] != "":
		kind, id = "stream", m[1]
	case m != nil:
		kind, id = "fetch", m[1]
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil || kind == "" {
		return resp, err
	}
	host := req.URL.Host
	body := &timedBody{ReadCloser: resp.Body, done: func(data []byte) {
		var view *jobs.JobView
		if kind == "submit" {
			view = &jobs.JobView{}
			if json.Unmarshal(data, view) != nil || view.ID == "" {
				return // a rejected submission; the coordinator retries it
			}
		}
		t.spans.add(host, id, kind, time.Since(start), view)
	}}
	body.keep = kind == "submit"
	resp.Body = body
	return resp, nil
}

// timedBody reports when the client closes a response body; a submit's
// body is kept so the job id can be read from it.
type timedBody struct {
	io.ReadCloser
	keep bool
	buf  bytes.Buffer
	once sync.Once
	done func(data []byte)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if b.keep {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.buf.Bytes()) })
	return err
}

// collectSpans joins one campaign's coordinator jobs with their HTTP calls
// and the serving manager's job phases. It runs before any restart, while
// every job is still retained by the manager that ran it.
func (r *serveRun) collectSpans(f *fleet, spec *sweep.Spec) {
	s := r.spans
	s.mu.Lock()
	defer s.mu.Unlock()
	mgrs := map[string]*jobs.Manager{}
	for _, w := range f.workers {
		mgrs[w.addr] = w.mgr
	}
	children := map[string]time.Duration{} // by benchmark|signature
	for hostID, calls := range s.calls {
		key := s.keys[hostID]
		for kind, d := range calls {
			children[key] += d
			s.kindMS(kind, d)
		}
		host, id, _ := strings.Cut(hostID, " ")
		if mgr := mgrs[host]; mgr != nil && calls["stream"] > 0 {
			if j, ok := mgr.Get(id); ok {
				v := j.View()
				if v.Started != nil && v.Finished != nil {
					r.queueMS = append(r.queueMS, float64(v.Started.Sub(v.Created).Microseconds())/1e3)
					r.runMS = append(r.runMS, float64(v.Finished.Sub(*v.Started).Microseconds())/1e3)
				}
			}
		}
	}
	sjobs, _ := spec.Jobs()
	for _, js := range sjobs {
		j := r.ev.jobs[js.Name+"/"+js.Benchmark]
		if j == nil {
			continue
		}
		key := js.Benchmark + "|" + experiments.ConfigSignature(&js.Config)
		self := j.done.Sub(j.assign) - children[key]
		r.selfMS = append(r.selfMS, float64(self.Microseconds())/1e3)
	}
}

func (s *httpSpans) kindMS(kind string, d time.Duration) {
	if s.samples == nil {
		s.samples = map[string][]float64{}
	}
	s.samples[kind] = append(s.samples[kind], float64(d.Microseconds())/1e3)
}

// layerMetrics reports the traced run's span medians.
func (r *serveRun) layerMetrics() {
	m := r.out.metrics
	for _, kind := range []string{"submit", "stream", "fetch"} {
		m["server."+kind+"_ms_p50"] = median(r.spans.samples[kind])
	}
	m["jobs.queue_wait_ms_p50"] = median(r.queueMS)
	m["jobs.run_ms_p50"] = median(r.runMS)
	m["cluster.self_ms_p50"] = median(r.selfMS)
}

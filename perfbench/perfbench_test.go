package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/kernels"
	"repro/internal/sim"
)

// TestMetricsPrintWithUnits checks that every catalog metric prints by name
// with its unit, in the text lines and in the JSON result line, and that
// BENCHMARK.json declares exactly the catalog.
func TestMetricsPrintWithUnits(t *testing.T) {
	for _, traced := range []bool{false, true} {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		o := newOutcome()
		o.attempted = 1
		for i, d := range defs {
			o.metrics[d.name] = float64(i) + 0.5
		}
		var buf bytes.Buffer
		if err := o.print(&buf, "wl", traced); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		var res resultJSON
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line is not the JSON result: %v", err)
		}
		if !res.Correct || res.Attempted != 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Fatalf("result = %+v", res)
		}
		for i, d := range defs {
			want := "wl metric " + d.name + " " + num(float64(i)+0.5) + " " + d.unit
			if !strings.Contains(buf.String(), want+"\n") {
				t.Errorf("no line %q", want)
			}
			if m := res.Metrics[d.name]; m.Unit != d.unit || m.Value != float64(i)+0.5 {
				t.Errorf("JSON %s = %+v", d.name, m)
			}
		}
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string }         `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.EndToEnd) != len(endToEnd) || len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, catalog %d/%d",
			len(bench.EndToEnd), len(bench.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if b := bench.EndToEnd[i]; b.Name != d.name || b.Unit != d.unit || b.Better != d.better {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, catalog %+v", i, b, d)
		}
	}
	for i, d := range perLayer {
		if b := bench.PerLayer[i]; b.Name != d.name || b.Unit != d.unit {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, catalog %+v", i, b, d)
		}
	}
	for i, w := range bench.Workloads {
		if i >= len(workloadNames()) || workloadNames()[i] != w.Name {
			t.Errorf("BENCHMARK.json workload %d = %q, program has %v", i, w.Name, workloadNames())
		}
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

var tinyDense = simParams{kernels.Small, []string{"pathfinder"}}

// TestCorruptedReplayCounted proves a wrong replayed result is a counted
// failure: one tiny sweep-dense pass is clean, and the same pass with the
// record-config replay perturbed fails.
func TestCorruptedReplayCounted(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		out := newOutcome()
		r, err := newSimRun(tinyDense, true, 1, out)
		if err != nil {
			t.Fatal(err)
		}
		if corrupt {
			r.mutate = func(key string, res *sim.Result) {
				if strings.HasSuffix(key, "/replay/"+recordConfig) {
					res.Cycles++
				}
			}
		}
		r.phase(time.Now()) // exactly one pass
		_, sims := r.opsPerPass()
		if out.attempted != sims {
			t.Fatalf("attempted %d, want %d", out.attempted, sims)
		}
		if corrupt && out.failed != 1 {
			t.Errorf("corrupted replay: failed = %d, want 1", out.failed)
		}
		if !corrupt && out.failed != 0 {
			t.Errorf("clean pass: failed = %d", out.failed)
		}
	}
}

// TestCPUSharesSumTo100 folds a synthetic pprof listing and a real profile
// of a tiny simulation; the layer shares must sum to 100.
func TestCPUSharesSumTo100(t *testing.T) {
	listing := `Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  repro/internal/sim.(*SM).issueAll /src/internal/sim/sm.go
     200ms 20.00% 60.00%      200ms 20.00%  repro/internal/sim.(*SM).advance /src/internal/sim/pipeline.go
     100ms 10.00% 70.00%      100ms 10.00%  repro/internal/mem.(*Pipe).reap /src/internal/mem/mem.go
      50ms  5.00% 75.00%       50ms  5.00%  runtime.mallocgc /go/src/runtime/malloc.go
      50ms  5.00% 80.00%       50ms  5.00%  internal/runtime/atomic.(*Int32).Add /go/src/internal/runtime/atomic/types.go (inline)
     100ms 10.00% 90.00%      100ms 10.00%  net/http.(*conn).serve /go/src/net/http/server.go
     100ms 10.00%   100%      100ms 10.00%  main.main /src/perfbench/main.go
`
	shares, err := foldTop(bytes.NewBufferString(listing))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim.issue": 40, "sim.pipeline": 20, "mem.pipe": 10, "runtime": 10, "net": 10, "other": 10}
	for l, pct := range shares {
		if math.Abs(pct-want[l]) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", l, pct, want[l])
		}
	}
	checkSum(t, shares)

	m := map[string]float64{}
	prof, err := startProfile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r, err := newSimRun(simParams{kernels.Small, []string{"spmv"}}, false, 1, newOutcome())
	if err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		r.phase(time.Now())
	}
	if err := prof.stop(m); err != nil {
		t.Fatal(err)
	}
	real := map[string]float64{}
	for _, l := range cpuLayers {
		v, ok := m["cpu."+l+"_pct"]
		if !ok {
			t.Fatalf("no cpu.%s_pct", l)
		}
		real[l] = v
	}
	checkSum(t, real)
}

func checkSum(t *testing.T, shares map[string]float64) {
	t.Helper()
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v, want 100: %v", sum, shares)
	}
}

// TestServeCampaignTiny runs serve-campaign on two kernels: every job must
// succeed and match its first serving across the restart, and the restart
// must move repeats onto the disk store.
func TestServeCampaignTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	out := newOutcome()
	p := serveSpec{scale: kernels.Small, benchmarks: []string{"bfs", "nw"}}
	if err := runServe(p, 1, 0.5, false, t.TempDir(), out); err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("failed %d of %d", out.failed, out.attempted)
	}
	if out.metrics["jobs.store_hit_frac"] == 0 {
		t.Errorf("no store hits after the restart: %v", out.metrics)
	}
	for _, d := range endToEnd {
		if out.metrics[d.name] <= 0 {
			t.Errorf("%s = %v, want > 0", d.name, out.metrics[d.name])
		}
	}
}

func TestTail(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if p, v, ok := tail(xs); !ok || p != 90 || v != 90 {
		t.Errorf("tail(1..100) = p%v %v %v, want p90 90", p, v, ok)
	}
	if _, _, ok := tail(xs[:10]); ok {
		t.Error("tail of 10 samples should not exist")
	}
}

// TestHeldTime checks the steal correction: independent losses multiply,
// a share is clamped to the whole interval, and without matching steal
// counters held time is wall time.
func TestHeldTime(t *testing.T) {
	w := 10 * time.Second
	for _, c := range []struct {
		before, after []float64
		want          time.Duration
	}{
		{[]float64{5, 7}, []float64{5, 7}, w},       // no steal
		{[]float64{5, 7}, []float64{10, 7}, w / 2},  // one CPU lost half
		{[]float64{5, 7}, []float64{10, 12}, w / 4}, // both lost half, independently
		{[]float64{0, 0}, []float64{20, 0}, 0},      // more steal than wall: clamped
		{nil, nil, w},                               // no steal accounting
		{[]float64{1}, []float64{2, 3}, w},          // CPU set changed: wall time
	} {
		if got := heldTime(w, c.before, c.after); got != c.want {
			t.Errorf("heldTime(%v, %v, %v) = %v, want %v", w, c.before, c.after, got, c.want)
		}
	}
}

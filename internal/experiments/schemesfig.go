package experiments

// The cmp1-schemes exhibit family compares the registered compression
// backends (schemes/v1: bdi, fpc, static) head to head on the full suite —
// the repo's first beyond-the-paper results. Each exhibit runs one
// simulation per scheme per benchmark through the engine's record-once /
// replay-N path and the single-flight memo cache; the compression token in
// the cfg/v2 signature keeps the per-scheme results from ever aliasing.

import (
	"repro/internal/energy"
	"repro/internal/kernels"
	"repro/internal/sim"
)

// schemeColumns lists the compared backends — the column order of all
// cmp1-schemes and gemm1-tiling tables. The fixed-choice bdi designs are
// BDI design points, not rival schemes; Figs 15/16 compare them.
func schemeColumns() []string { return []string{"bdi", "fpc", "static"} }

// SchemesRatio (cmp1-schemes-ratio) is the overall write compression ratio
// each scheme achieves: original write banks / compressed write banks,
// both phases. Higher is better; 1.0 means nothing compressed.
func (r *Runner) SchemesRatio() (*Table, error) {
	schemes := schemeColumns()
	t := &Table{
		ID:      "cmp1-schemes-ratio",
		Title:   "Compression ratio across registered schemes",
		Columns: schemes,
		Notes:   "original / compressed write banks (both phases); schemes/v1 registry order",
	}
	rows := map[string][]float64{}
	for i, scheme := range schemes {
		err := r.forEach(r.cfgScheme(scheme), func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(schemes))
			}
			s := res.Stats
			orig := s.WriteOrigBanks[0] + s.WriteOrigBanks[1]
			comp := s.WriteCompBanks[0] + s.WriteCompBanks[1]
			ratio := 1.0
			if comp > 0 {
				ratio = float64(orig) / float64(comp)
			}
			rows[b.Name][i] = ratio
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

// SchemesEnergy (cmp1-schemes-energy) is register file energy under each
// scheme, normalized to the no-compression baseline. Each scheme is costed
// with its own compression/decompression unit parameters
// (energy.ParamsForScheme), so a cheap codec with a worse ratio can still
// win here — that trade-off is the point of the exhibit.
func (r *Runner) SchemesEnergy() (*Table, error) {
	schemes := schemeColumns()
	t := &Table{
		ID:      "cmp1-schemes-energy",
		Title:   "Register file energy across registered schemes",
		Columns: schemes,
		Notes:   "normalized to no-compression baseline; per-scheme unit energies (estimates for non-bdi)",
	}
	base := map[string]float64{}
	if err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = energy.Compute(energy.DefaultParams(), res.Energy).TotalPJ()
		return nil
	}); err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	for i, scheme := range schemes {
		params := energy.ParamsForScheme(scheme)
		err := r.forEach(r.cfgScheme(scheme), func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(schemes))
			}
			rows[b.Name][i] = energy.Compute(params, res.Energy).TotalPJ() / base[b.Name]
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

// SchemesOverhead (cmp1-schemes-overhead) is the execution-time cost of
// each scheme: cycles normalized to the no-compression baseline, with each
// scheme running at its own codec latency (energy.CostOfScheme).
func (r *Runner) SchemesOverhead() (*Table, error) {
	schemes := schemeColumns()
	t := &Table{
		ID:      "cmp1-schemes-overhead",
		Title:   "Execution time across registered schemes",
		Columns: schemes,
		Notes:   "scheme cycles / baseline cycles at per-scheme codec latencies",
	}
	base := map[string]uint64{}
	if err := r.forEach(r.cfgBaseline(), func(b *kernels.Benchmark, res *sim.Result) error {
		base[b.Name] = res.Cycles
		return nil
	}); err != nil {
		return nil, err
	}
	rows := map[string][]float64{}
	for i, scheme := range schemes {
		err := r.forEach(r.cfgScheme(scheme), func(b *kernels.Benchmark, res *sim.Result) error {
			if rows[b.Name] == nil {
				rows[b.Name] = make([]float64, len(schemes))
			}
			rows[b.Name][i] = float64(res.Cycles) / float64(base[b.Name])
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	benches, err := r.benchmarks()
	if err != nil {
		return nil, err
	}
	for _, b := range benches {
		t.AddRow(b.Name, rows[b.Name]...)
	}
	t.AddAverage()
	return t, nil
}

package energy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func almost(a, b float64) bool {
	return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b))
}

// TestWireEnergyMatchesPaper: Table 3 derives 9.6 pJ per 128-bit beat over
// 1mm at 50% activity from 300 fF/mm and 1V.
func TestWireEnergyMatchesPaper(t *testing.T) {
	p := DefaultParams()
	if !almost(p.WireBeatPJ(), 9.6) {
		t.Fatalf("wire beat %.3f pJ, want 9.6", p.WireBeatPJ())
	}
	p.WireActivity = 1.0
	if !almost(p.WireBeatPJ(), 19.2) {
		t.Fatalf("full-activity wire beat %.3f pJ, want 19.2", p.WireBeatPJ())
	}
	p.WireActivity = 0
	if p.WireBeatPJ() != 0 {
		t.Fatal("zero activity must cost nothing")
	}
}

// TestBankLeakagePerCycle: 5.8 mW at 1.4 GHz is ~4.143 pJ per cycle.
func TestBankLeakagePerCycle(t *testing.T) {
	p := DefaultParams()
	want := 5.8e-3 / 1.4e9 * 1e12
	if !almost(p.BankLeakPJPerCycle(), want) {
		t.Fatalf("bank leak %.4f pJ/cycle, want %.4f", p.BankLeakPJPerCycle(), want)
	}
}

func TestComputeComponents(t *testing.T) {
	p := DefaultParams()
	ev := Events{
		BankAccesses:      1000,
		WireBeats:         1000,
		CompActs:          10,
		DecompActs:        20,
		PoweredBankCycles: 3200,
		Cycles:            100,
		CompUnits:         2,
		DecompUnits:       4,
	}
	b := Compute(p, ev)
	wantDyn := 1000*7.0 + 1000*9.6
	if !almost(b.DynamicPJ, wantDyn) {
		t.Fatalf("dynamic %.1f, want %.1f", b.DynamicPJ, wantDyn)
	}
	wantLeak := 3200 * p.BankLeakPJPerCycle()
	if !almost(b.LeakagePJ, wantLeak) {
		t.Fatalf("leakage %.1f, want %.1f", b.LeakagePJ, wantLeak)
	}
	perCycle := 1e-3 / p.ClockHz * 1e12
	wantComp := 10*23.0 + 2*100*0.12*perCycle
	if !almost(b.CompressPJ, wantComp) {
		t.Fatalf("compress %.3f, want %.3f", b.CompressPJ, wantComp)
	}
	wantDecomp := 20*21.0 + 4*100*0.08*perCycle
	if !almost(b.DecompressPJ, wantDecomp) {
		t.Fatalf("decompress %.3f, want %.3f", b.DecompressPJ, wantDecomp)
	}
	if !almost(b.TotalPJ(), wantDyn+wantLeak+wantComp+wantDecomp) {
		t.Fatal("total mismatch")
	}
}

func TestScalingKnobs(t *testing.T) {
	ev := Events{BankAccesses: 100, CompActs: 10, DecompActs: 10}
	p := DefaultParams()
	base := Compute(p, ev)
	p.BankAccessScale = 2
	if got := Compute(p, ev); !almost(got.DynamicPJ-base.DynamicPJ, 100*7.0) {
		t.Fatal("bank access scaling wrong")
	}
	p = DefaultParams()
	p.UnitEnergyScale = 2
	got := Compute(p, ev)
	if !almost(got.CompressPJ, 2*base.CompressPJ) || !almost(got.DecompressPJ, 2*base.DecompressPJ) {
		t.Fatal("unit energy scaling wrong")
	}
}

// TestNonNegativeAndMonotone: energy is non-negative and monotone in every
// event count.
func TestNonNegativeAndMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b, c, d, e uint32) bool {
		ev := Events{
			BankAccesses:      uint64(a),
			WireBeats:         uint64(b),
			CompActs:          uint64(c),
			DecompActs:        uint64(d),
			PoweredBankCycles: uint64(e),
		}
		t1 := Compute(p, ev).TotalPJ()
		if t1 < 0 {
			return false
		}
		ev.BankAccesses++
		ev.WireBeats++
		ev.PoweredBankCycles++
		return Compute(p, ev).TotalPJ() >= t1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEventsAdd(t *testing.T) {
	a := Events{BankAccesses: 10, Cycles: 100, CompUnits: 2, PoweredBankCycles: 50}
	b := Events{BankAccesses: 5, Cycles: 80, CompUnits: 2, PoweredBankCycles: 60}
	a.Add(b)
	if a.BankAccesses != 15 || a.CompUnits != 4 || a.PoweredBankCycles != 110 {
		t.Fatalf("sum fields wrong: %+v", a)
	}
	if a.Cycles != 100 {
		t.Fatalf("cycles should take max, got %d", a.Cycles)
	}
}

// TestSchemeCostsCoverRegistry: every registered compression backend has an
// explicit cost entry, so CostOfScheme never silently falls back to bdi's.
func TestSchemeCostsCoverRegistry(t *testing.T) {
	for _, name := range core.Schemes() {
		if _, ok := schemeCosts[name]; !ok {
			t.Errorf("scheme %q has no schemeCosts entry", name)
		}
	}
	for _, name := range []string{"bdi40", "bdi41", "bdi42"} {
		if CostOfScheme(name) != CostOfScheme("bdi") {
			t.Errorf("%s costs %+v, want the bdi Table 3 values", name, CostOfScheme(name))
		}
	}
}

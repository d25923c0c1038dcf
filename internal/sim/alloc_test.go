package sim

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/isa"
)

// TestSteadyStateStepAllocFree pins down the tentpole property of the
// scratch-arena work: once the pools are warm, an SM cycle (pipeline
// advance + issue + register-file tick) performs zero heap allocations.
func TestSteadyStateStepAllocFree(t *testing.T) {
	// A long uniform loop touching the ALU, the compressor path and global
	// memory in both directions, so the measured steps exercise the full
	// issue/execute/writeback machinery.
	src := `
	mov  r0, %tid.x
	shl  r1, r0, 2
	mov  r2, 0
Lloop:
	ld.global r3, [r1]
	add  r3, r3, 1
	st.global [r1], r3
	add  r2, r2, 1
	setp.lt p0, r2, 1000000
@p0	bra Lloop
	exit
`
	if allocs, _ := steadyStateStep(t, src, testConfig()); allocs != 0 {
		t.Fatalf("steady-state SM step allocates %.1f objects/cycle, want 0", allocs)
	}
}

// TestSleepingStepAllocFree extends the allocation gate to the wake-time
// path: a memory-bound loop whose uncoalesced loads (32 segments each, L1
// off so every one reaches DRAM) keep the memory pipe full, so most
// measured cycles are slept through and the rest compact the pipe's ring
// and refill it. Neither may allocate.
func TestSleepingStepAllocFree(t *testing.T) {
	src := `
	mov  r0, %tid.x
	shl  r1, r0, 7
	mov  r2, 0
Lloop:
	ld.global r3, [r1]
	add  r2, r2, 1
	setp.lt p0, r2, 1000000
@p0	bra Lloop
	exit
`
	c := testConfig()
	c.L1SizeKB = 0
	allocs, asleep := steadyStateStep(t, src, c)
	if allocs != 0 {
		t.Fatalf("sleeping SM step allocates %.1f objects/cycle, want 0", allocs)
	}
	t.Logf("SM slept through %.0f%% of the measured cycles", 100*asleep)
	if asleep < 0.5 {
		t.Fatalf("SM slept through %.0f%% of the measured cycles, want most of them", 100*asleep)
	}
}

// steadyStateStep warms one SM of config c running src (4 CTAs of 64
// threads) for 2000 cycles, then measures the heap allocations per cycle
// over 500 more and the share of those cycles the SM slept through.
func steadyStateStep(t *testing.T, src string, c Config) (allocs, asleep float64) {
	t.Helper()
	c.NumSMs = 1
	g, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	k, err := asm.Assemble("steady", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := cfg.ComputeReconvergence(k); err != nil {
		t.Fatalf("ComputeReconvergence: %v", err)
	}
	l := isa.Launch{Kernel: k, Grid: isa.Dim3{X: 4}, Block: isa.Dim3{X: 64}}
	if err := l.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	sm := g.sms[0]
	sm.reset(l)
	nextCTA := 0
	cycle := uint64(0)
	slept := 0
	step := func() {
		cycle++
		if nextCTA < l.NumCTAs() && sm.tryLaunchCTA(nextCTA) {
			nextCTA++
		}
		if cycle < sm.sleepUntil {
			slept++
		}
		sm.step(cycle)
		if sm.err != nil {
			t.Fatalf("cycle %d: %v", cycle, sm.err)
		}
		// The epoch barrier the GPU loop would run: drain the commit log
		// every cycle (SMEpoch=1) so its steady-state cost — append into a
		// warm slice, overlay clear, Store32 — is measured too.
		sm.commitMemLog()
	}
	// Warm-up: grow every pool and scratch buffer to steady-state size.
	for i := 0; i < 2000; i++ {
		step()
	}
	if !sm.busy() {
		t.Fatal("kernel drained during warm-up; steady-state window too short")
	}
	slept = 0
	const runs = 500
	allocs = testing.AllocsPerRun(runs, step)
	if !sm.busy() {
		t.Fatal("kernel drained during measurement; steady-state window too short")
	}
	// AllocsPerRun adds one warm-up call to its measured runs.
	return allocs, float64(slept) / (runs + 1)
}

// TestChooseEncMemo proves the encoding memo actually short-circuits the
// scan: a deliberately poisoned cache entry is returned verbatim on the
// unchanged-value path, and repaired as soon as the value changes or the
// entry is invalidated.
func TestChooseEncMemo(t *testing.T) {
	comp, err := core.NewCompressor(core.DefaultScheme)
	if err != nil {
		t.Fatal(err)
	}
	s := &SM{gpu: &GPU{comp: comp}}
	w := newWarp(0, 0, 0, 0, isa.WarpSize, 8, 1)
	const dst = isa.Reg(3)

	var res execResult
	for i := range res.dstVals {
		res.dstVals[i] = uint32(100 + i) // stride 1: classifies as <4,1>
	}
	res.unchanged = true

	// First classification populates the cache even on the unchanged path.
	want := comp.Choose(int(dst), &res.dstVals)
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("cold chooseEnc = %v, want %v", got, want)
	}
	if w.encValid&(1<<dst) == 0 {
		t.Fatal("cache entry not marked valid after classification")
	}

	// Poison the entry: an unchanged value must hit the memo, not rescan.
	w.encCache[dst] = core.EncUncompressed
	if got := s.chooseEnc(w, dst, &res); got != core.EncUncompressed {
		t.Fatalf("unchanged value rescanned (got %v); memo not consulted", got)
	}

	// A changed value bypasses the memo and repairs the entry.
	res.unchanged = false
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("changed value chooseEnc = %v, want %v", got, want)
	}
	if w.encCache[dst] != want {
		t.Fatalf("cache not repaired: %v, want %v", w.encCache[dst], want)
	}

	// Invalidation (applyFaults clears the bit on corruption) forces a
	// rescan even when the value is unchanged.
	res.unchanged = true
	w.encValid &^= 1 << dst
	w.encCache[dst] = core.EncUncompressed
	if got := s.chooseEnc(w, dst, &res); got != want {
		t.Fatalf("invalidated entry chooseEnc = %v, want %v", got, want)
	}
}

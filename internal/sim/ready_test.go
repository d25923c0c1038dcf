package sim

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/exectrace"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/valueprof"
)

// refCanIssue is the per-warp issue check the ready set replaced, kept as
// its reference: every hazard of the warp's next instruction, rechecked
// from scratch, with the stall it charges returned instead of counted.
func refCanIssue(s *SM, w *Warp) (ok bool, scoreboard, collector uint64) {
	in := s.nextInstr(w)
	if in == nil {
		return false, 0, 0
	}
	// Predicate scoreboard: guard, comparison destination, selp source.
	if in.Pred != isa.PredNone && w.predBusy&(1<<in.Pred) != 0 {
		return false, 1, 0
	}
	if in.PDst != isa.PredNone && w.predBusy&(1<<in.PDst) != 0 {
		return false, 1, 0
	}
	if in.PSrc != isa.PredNone && w.predBusy&(1<<in.PSrc) != 0 {
		return false, 1, 0
	}
	// Register scoreboard: RAW on sources, WAW on destination.
	for _, src := range in.Srcs {
		if src.Kind == isa.OperandReg && w.regBusy&(1<<src.Reg) != 0 {
			return false, 1, 0
		}
	}
	if in.HasDst() && w.regBusy&(1<<in.Dst) != 0 {
		return false, 1, 0
	}
	// Structural: non-control instructions need a collector unit.
	if in.Op.Class() != isa.ClassCtrl && s.collectorsInUse >= s.cfg.Collectors {
		return false, 0, 1
	}
	return true, 0, 0
}

// refScan is the candidate scan the ready set replaced: every resident
// running warp of scheduler si, in slot order, through refCanIssue.
func refScan(s *SM, si int) (cands []sched.Candidate, scoreboard, collector uint64) {
	nsched := s.cfg.SchedulersPerSM
	for slot := si; slot < len(s.warps); slot += nsched {
		w := s.warps[slot]
		if w == nil || w.state != warpRunning {
			continue
		}
		ok, sb, coll := refCanIssue(s, w)
		scoreboard += sb
		collector += coll
		if ok {
			cands = append(cands, sched.Candidate{Slot: slot, Age: w.age})
		}
	}
	return cands, scoreboard, collector
}

// checkedStep is SM.step with every scheduler's ready set checked against
// refScan before its pick: the same candidates in the same order, and the
// same StallScoreboard and StallCollector increments. Sleeping cycles run
// no scan, so they take the production path unchanged.
func checkedStep(t *testing.T, s *SM, cycle uint64) {
	t.Helper()
	if cycle < s.sleepUntil {
		s.step(cycle)
		return
	}
	s.cycle = cycle
	s.advancePipeline()
	scoreboard, collector := s.st.StallScoreboard, s.st.StallCollector
	issued := false
	for si := 0; si < s.cfg.SchedulersPerSM && s.err == nil; si++ {
		want, wantSB, wantColl := refScan(s, si)
		sb, coll := s.st.StallScoreboard, s.st.StallCollector
		cands := s.canIssue(si)
		if !slices.Equal(cands, want) {
			t.Fatalf("SM %d cycle %d scheduler %d: ready set %v, scan %v", s.id, cycle, si, cands, want)
		}
		if d := s.st.StallScoreboard - sb; d != wantSB {
			t.Fatalf("SM %d cycle %d scheduler %d: StallScoreboard +%d, scan +%d", s.id, cycle, si, d, wantSB)
		}
		if d := s.st.StallCollector - coll; d != wantColl {
			t.Fatalf("SM %d cycle %d scheduler %d: StallCollector +%d, scan +%d", s.id, cycle, si, d, wantColl)
		}
		if len(cands) == 0 {
			continue
		}
		s.issue(s.warps[s.policy[si].Pick(cands)])
		issued = true
	}
	if !issued && s.wake > cycle+1 {
		s.sleepUntil = s.wake
		s.idleScoreboard = s.st.StallScoreboard - scoreboard
		s.idleCollector = s.st.StallCollector - collector
	}
	s.rfFile.Tick(cycle)
}

// checkedRun runs launch l on g as GPU.run does with one shard and a
// one-cycle epoch, stepping every SM through checkedStep. It returns the
// summed SM statistics and the highest warp slot that held a warp.
func checkedRun(t *testing.T, g *GPU, l isa.Launch) (st stats.Stats, maxSlot int) {
	t.Helper()
	if g.rp == nil && l.Kernel.ReconvPC == nil {
		if err := cfg.ComputeReconvergence(l.Kernel); err != nil {
			t.Fatal(err)
		}
	}
	if b, ok := g.comp.(core.KernelTableBinder); ok {
		b.BindTable(valueprof.StaticTable(l.Kernel))
	}
	for _, sm := range g.sms {
		sm.reset(l)
	}
	g.mem.Presize()
	next, numCTAs := 0, l.NumCTAs()
	for cycle := uint64(1); cycle <= g.cfg.MaxCycles; cycle++ {
		for _, sm := range g.sms {
			if next < numCTAs && !sm.launchBlocked && sm.tryLaunchCTA(next) {
				next++
			}
		}
		busy := next < numCTAs
		for _, sm := range g.sms {
			checkedStep(t, sm, cycle)
			if sm.err != nil {
				t.Fatalf("SM %d cycle %d: %v", sm.id, cycle, sm.err)
			}
			for slot := len(sm.warps) - 1; slot > maxSlot; slot-- {
				if sm.warps[slot] != nil {
					maxSlot = slot
					break
				}
			}
			busy = busy || sm.busy()
		}
		g.commitEpoch()
		if !busy {
			for _, sm := range g.sms {
				st.Add(sm.finalize(cycle))
			}
			return st, maxSlot
		}
	}
	t.Fatalf("launch did not finish in %d cycles", g.cfg.MaxCycles)
	return st, maxSlot
}

// TestReadySetMatchesScan checks the ready set against the per-warp scan
// it replaced on every scheduler of every awake cycle, in execute and
// replay mode, under both scheduling policies and the register file cache.
// Each checked run must also end with exactly the statistics of a normal
// run, so the check stepped the machine the simulator steps.
func TestReadySetMatchesScan(t *testing.T) {
	configs := []struct {
		name   string
		mut    func(c *Config)
		replay bool
	}{
		{"gto", func(c *Config) {}, false},
		{"lrr", func(c *Config) { c.Scheduler = "lrr" }, false},
		{"rfc4", func(c *Config) { c.Compression, c.RFCEntries = CompressionOff, 4 }, false},
		{"replay", func(c *Config) {}, true},
	}
	for _, name := range []string{"pathfinder", "bfs", "histo", "spmv"} {
		for _, hc := range configs {
			t.Run(name+"/"+hc.name, func(t *testing.T) {
				c := DefaultConfig()
				c.MaxCycles = resultHashMaxCycles
				hc.mut(&c)
				checkReadySet(t, c, name, kernels.Small, hc.replay)
			})
		}
	}
}

// TestReadySetWideSM runs the check on one 128-slot SM, where the ready
// set spans two mask words: histo needs 8 registers per thread, so the
// register file admits all 128 warps, and slots past 63 must fill.
func TestReadySetWideSM(t *testing.T) {
	c := DefaultConfig()
	c.MaxCycles = 10 * resultHashMaxCycles
	c.NumSMs, c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.SchedulersPerSM = 1, 128, 16, 4
	if maxSlot := checkReadySet(t, c, "histo", kernels.Medium, false); maxSlot < 64 {
		t.Fatalf("highest live warp slot %d; the run never reached the second mask word", maxSlot)
	}
}

// checkReadySet runs benchmark name under c through checkedRun (replaying
// a trace recorded under c when replay is set) and compares the statistics
// with a normal run's. It returns the highest warp slot that held a warp.
func checkReadySet(t *testing.T, c Config, name string, scale kernels.Scale, replay bool) int {
	t.Helper()
	b, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	build := func() (*GPU, isa.Launch) {
		g, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := b.Build(g.Mem(), scale)
		if err != nil {
			t.Fatal(err)
		}
		return g, inst.Launch
	}
	g, l := build()
	var want *Result
	var err error
	if replay {
		var lt *exectrace.Launch
		if want, lt, err = g.Record(l); err != nil {
			t.Fatal(err)
		}
		g, _ = build()
		g.rp = newReplayRun(lt)
		l = replayLaunch(lt)
	}
	got, maxSlot := checkedRun(t, g, l)
	if !replay {
		g, l = build()
		if want, err = g.Run(l); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want.Stats) {
		t.Fatalf("checked run's statistics differ from a normal run's:\n got %+v\nwant %+v", got, want.Stats)
	}
	return maxSlot
}

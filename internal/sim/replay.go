package sim

import (
	"context"
	"math/bits"
	"sync/atomic"

	"repro/internal/exectrace"
	"repro/internal/isa"
)

// replayRun is the per-run state of a trace-driven simulation: the
// (immutable, possibly shared) trace launch plus the shadow memory that
// re-executes atomics in the replay's own issue order.
type replayRun struct {
	launch      *exectrace.Launch
	warpsPerCTA int
	// atoms shadows the atomically-updated memory cells, seeded from the
	// trace's launch-time table. Replay applies the recorded per-lane
	// addends in its own (deterministic) issue order, which is exactly how
	// execute mode orders them under the same configuration — so the
	// old-value vectors, and everything downstream of them, match.
	atoms map[uint32]uint32
}

func (rp *replayRun) stream(ctaID, warpInCTA int) *exectrace.WarpStream {
	return rp.launch.Warps[ctaID*rp.warpsPerCTA+warpInCTA]
}

// Replay drives the timing/compression/energy back-end from a recorded
// trace launch instead of the ISA interpreter. For any configuration this
// GPU was built with, the Result is byte-identical to executing the same
// launch — the determinism oracle in the test suite enforces it.
//
// The trace launch is read-only throughout: any number of concurrent
// replays (each with its own GPU) may share one trace.
func (g *GPU) Replay(lt *exectrace.Launch) (*Result, error) {
	return g.ReplayContextBeat(context.Background(), lt, nil)
}

// ReplayContextBeat is Replay with cancellation and a progress heartbeat
// (see RunContextBeat).
func (g *GPU) ReplayContextBeat(ctx context.Context, lt *exectrace.Launch, beat *atomic.Uint64) (*Result, error) {
	if err := g.traceConfigError(); err != nil {
		return nil, err
	}
	if err := lt.Validate(); err != nil {
		return nil, err
	}
	g.rp = newReplayRun(lt)
	defer func() { g.rp = nil }()
	return g.run(ctx, replayLaunch(lt), beat)
}

// replayLaunch is the launch a trace launch replays.
func replayLaunch(lt *exectrace.Launch) isa.Launch {
	return isa.Launch{Kernel: lt.Kernel, Grid: lt.Grid, Block: lt.Block, Params: lt.Params}
}

// newReplayRun builds the per-run state of replaying lt.
func newReplayRun(lt *exectrace.Launch) *replayRun {
	rp := &replayRun{
		launch:      lt,
		warpsPerCTA: replayLaunch(lt).WarpsPerCTA(),
		atoms:       make(map[uint32]uint32, len(lt.AtomInit)),
	}
	for _, c := range lt.AtomInit {
		rp.atoms[c.Addr] = c.Val
	}
	return rp
}

// replayStep is the replay-mode counterpart of execute: it advances the
// warp's trace cursor and reconstructs the functional outcome the timing
// pipeline needs — register-write vectors from the value pool (or the
// warp's shadow registers for unchanged writes), memory-timing metadata
// from the record, and atomic old values from the shadow memory. Control
// flow needs no SIMT stack: the trace already is the resolved lane-exact
// instruction stream.
func (s *SM) replayStep(w *Warp, in *isa.Instr, f *inflight) {
	res := &f.res
	st := w.rpStream
	r := &st.Recs[w.rpRec]
	w.rpRec++
	eff := r.Eff

	switch in.Op {
	case isa.OpNop, isa.OpBra:
		// issue-slot occupancy only

	case isa.OpBar:
		s.arriveBarrier(w)

	case isa.OpExit:
		dying := r.Active
		if in.Pred != isa.PredNone {
			dying = eff
		}
		w.launchMask &^= dying

	case isa.OpSetP:
		// Predicate outcomes are folded into the trace's Eff masks; the
		// record exists for issue-slot and scoreboard timing only.

	case isa.OpAtomAdd:
		res.dstVals = w.regs[in.Dst]
		// Cursor advance happens at issue; the shadow-memory
		// read-modify-writes resolve at the epoch barrier
		// (SM.resolveReplayAtom) in SM-id order — the same global order
		// execute mode commits in, so the old-value vectors match. The
		// shared shadow map is never touched from shard workers.
		f.atomIdx = w.rpAtom
		w.rpAtom += bits.OnesCount32(eff)
		res.writes = eff != 0
		if eff == 0 {
			res.unchanged = true
		} else {
			s.memLog = append(s.memLog, memOp{atom: f})
		}
		s.replayMemAux(st, w, in, r, res)

	case isa.OpStG, isa.OpStS:
		s.replayMemAux(st, w, in, r, res)

	default:
		// Register-writing ops: loads, selp, ALU/SFU.
		if r.Flags&exectrace.FlagWrites != 0 {
			res.writes = true
			if r.Flags&exectrace.FlagVals != 0 {
				res.dstVals = st.Vals[w.rpVal]
				w.rpVal++
				w.regs[in.Dst] = res.dstVals
			} else {
				res.dstVals = w.regs[in.Dst]
				res.unchanged = true
			}
		}
		if in.Op == isa.OpLdG || in.Op == isa.OpLdS {
			s.replayMemAux(st, w, in, r, res)
		}
	}

	// A stream ends at the exit that retires the warp's last thread; in
	// execute mode that is the instant warpExited fires, so replay fires it
	// on stream exhaustion and the barrier quorum and CTA accounting evolve
	// identically.
	if w.rpRec == len(st.Recs) && w.state != warpFinished {
		w.state = warpFinished
		s.warpExited(w)
	}
}

// replayMemAux restores the memory-timing metadata of a record: the
// coalesced segment list for global ops, the conflict degree for shared
// ops and atomics.
func (s *SM) replayMemAux(st *exectrace.WarpStream, w *Warp, in *isa.Instr, r *exectrace.Rec, res *execResult) {
	switch in.Op {
	case isa.OpLdG, isa.OpStG, isa.OpAtomAdd:
		res.nsegs = int(r.NSegs)
		copy(res.segBuf[:res.nsegs], st.Segs[w.rpSeg:w.rpSeg+res.nsegs])
		w.rpSeg += res.nsegs
		if in.Op == isa.OpAtomAdd {
			res.atomDeg = int(r.Deg)
		}
	default:
		res.sharedDeg = int(r.Deg)
		// Older v1 traces carry no word count for shared ops (NSegs was
		// always 0 there); they replay with zero bank-level counters while
		// phases — the timing-relevant part — still come from Deg.
		res.sharedWds = int(r.NSegs)
		if res.sharedWds > 0 {
			res.sharedBc = bits.OnesCount32(r.Eff) - res.sharedWds
		}
	}
}

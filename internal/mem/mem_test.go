package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestGlobalLoadStore(t *testing.T) {
	g := NewGlobal(4096)
	if err := g.Store32(102, 0xDEADBEEF); err == nil {
		t.Fatal("unaligned store accepted")
	}
	if err := g.Store32(104, 0xDEADBEEF); err != nil {
		t.Fatal(err)
	}
	v, err := g.Load32(104)
	if err != nil || v != 0xDEADBEEF {
		t.Fatalf("load %x %v", v, err)
	}
	if _, err := g.Load32(4096); err == nil {
		t.Fatal("out-of-bounds load accepted")
	}
	if _, err := g.Load32(4094); err == nil {
		t.Fatal("straddling load accepted")
	}
}

func TestAllocAlignment(t *testing.T) {
	g := NewGlobal(1 << 16)
	a1, err := g.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := g.Alloc(200)
	if err != nil {
		t.Fatal(err)
	}
	if a1%SegmentBytes != 0 || a2%SegmentBytes != 0 {
		t.Fatalf("allocations not segment aligned: %d %d", a1, a2)
	}
	if a2 != a1+SegmentBytes {
		t.Fatalf("10-byte alloc should consume one segment, got %d -> %d", a1, a2)
	}
	if _, err := g.Alloc(1 << 20); err == nil {
		t.Fatal("oversized alloc accepted")
	}
	if _, err := g.Alloc(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestHostTransfers(t *testing.T) {
	g := NewGlobal(4096)
	ints := []int32{1, -2, 3}
	if err := g.WriteInt32(0, ints); err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadInt32(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if got[i] != ints[i] {
			t.Fatalf("int roundtrip: %v", got)
		}
	}
	fl := []float32{1.5, -0.25, 3e9}
	if err := g.WriteFloat32(128, fl); err != nil {
		t.Fatal(err)
	}
	gf, err := g.ReadFloat32(128, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fl {
		if gf[i] != fl[i] {
			t.Fatalf("float roundtrip: %v", gf)
		}
	}
}

func TestCoalescing(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	// Perfectly coalesced: 32 consecutive words = one 128B segment.
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if n := CoalesceSegments(&addrs, 0xFFFFFFFF); n != 1 {
		t.Fatalf("consecutive: %d segments, want 1", n)
	}
	// Stride-128: every lane its own segment.
	for i := range addrs {
		addrs[i] = uint32(128 * i)
	}
	if n := CoalesceSegments(&addrs, 0xFFFFFFFF); n != 32 {
		t.Fatalf("stride-128: %d segments, want 32", n)
	}
	// Mask limits the count.
	if n := CoalesceSegments(&addrs, 0x3); n != 2 {
		t.Fatalf("masked: %d segments, want 2", n)
	}
	// Broadcast: one segment.
	for i := range addrs {
		addrs[i] = 512
	}
	if n := CoalesceSegments(&addrs, 0xFFFFFFFF); n != 1 {
		t.Fatalf("broadcast: %d segments, want 1", n)
	}
	// Inactive warp: zero transactions.
	if n := CoalesceSegments(&addrs, 0); n != 0 {
		t.Fatalf("empty mask: %d segments, want 0", n)
	}
}

// TestCoalesceListAgreesWithCount: the segment list and the counter must
// agree for random address patterns.
func TestCoalesceListAgreesWithCount(t *testing.T) {
	f := func(addrs [isa.WarpSize]uint32, mask uint32) bool {
		n := CoalesceSegments(&addrs, mask)
		list := CoalesceSegmentList(&addrs, mask, nil)
		return n == len(list)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestSharedConflicts(t *testing.T) {
	var addrs [isa.WarpSize]uint32
	// Consecutive words: conflict-free (degree 1).
	for i := range addrs {
		addrs[i] = uint32(4 * i)
	}
	if d := AnalyzeShared(&addrs, 0xFFFFFFFF, SharedWordBytes).Phases; d != 1 {
		t.Fatalf("consecutive: degree %d, want 1", d)
	}
	// Stride-32 words: all lanes hit bank 0 -> 32-way conflict.
	for i := range addrs {
		addrs[i] = uint32(4 * 32 * i)
	}
	if d := AnalyzeShared(&addrs, 0xFFFFFFFF, SharedWordBytes).Phases; d != 32 {
		t.Fatalf("stride-32: degree %d, want 32", d)
	}
	// Broadcast of one word: degree 1.
	for i := range addrs {
		addrs[i] = 64
	}
	if d := AnalyzeShared(&addrs, 0xFFFFFFFF, SharedWordBytes).Phases; d != 1 {
		t.Fatalf("broadcast: degree %d, want 1", d)
	}
	if d := AnalyzeShared(&addrs, 0, SharedWordBytes).Phases; d != 1 {
		t.Fatalf("empty mask: degree %d, want 1", d)
	}
}

func TestPipeLatencyAndBandwidth(t *testing.T) {
	p := NewPipe(100, 8)
	// One transaction at cycle 10: data at 110.
	r, ok := p.TryIssue(10, 1)
	if !ok || r != 110 {
		t.Fatalf("single txn ready at %d", r)
	}
	// Four more issue back to back (1/cycle): last at cycle 14 -> 114.
	r, ok = p.TryIssue(10, 4)
	if !ok || r != 114 {
		t.Fatalf("burst ready at %d, want 114", r)
	}
	// Capacity: 5 in flight, 4 more would exceed 8.
	if _, ok := p.TryIssue(10, 4); ok {
		t.Fatal("capacity exceeded but accepted")
	}
	// Three fit exactly.
	if _, ok := p.TryIssue(10, 3); !ok {
		t.Fatal("exact fit rejected")
	}
	// After completion the pipe drains.
	if _, ok := p.TryIssue(300, 8); !ok {
		t.Fatal("drained pipe rejected issue")
	}
	if p.Transactions() != 16 {
		t.Fatalf("transactions %d, want 16", p.Transactions())
	}
}

func TestPipeZeroTxns(t *testing.T) {
	p := NewPipe(100, 4)
	r, ok := p.TryIssue(42, 0)
	if !ok || r != 42 {
		t.Fatal("zero transactions should complete immediately")
	}
}

// TestPipeOversizeNeverFits: an access needing more transactions than the
// pipe admits never reports a room cycle and never issues, however long it
// waits — the simulator's wake bookkeeping relies on this to leave such a
// launch stalled until MaxCycles rather than waking it at a bogus cycle.
func TestPipeOversizeNeverFits(t *testing.T) {
	p := NewPipe(10, 4)
	if _, ok := p.TryIssue(0, 3); !ok {
		t.Fatal("3 of 4 rejected")
	}
	for now := uint64(0); now < 200; now += 7 {
		if room, ok := p.RoomAt(now, 5); ok {
			t.Fatalf("RoomAt(%d, 5) = %d on a 4-entry pipe", now, room)
		}
		if _, ok := p.TryIssue(now, 5); ok {
			t.Fatalf("5 transactions issued at %d on a 4-entry pipe", now)
		}
	}
	if room, ok := p.RoomAt(200, 4); !ok || room != 200 {
		t.Fatalf("drained pipe: RoomAt(200, 4) = %d, %v; want 200, true", room, ok)
	}
}

// refPipe is the spec-literal pipe model Pipe is fuzzed against: an
// unordered list of completion cycles, filtered on every issue attempt.
type refPipe struct {
	latency, maxInflight int
	inflight             []uint64
	nextFree             uint64
}

func (p *refPipe) tryIssue(now uint64, txns int) (ready uint64, ok bool) {
	if txns <= 0 {
		return now, true
	}
	out := p.inflight[:0]
	for _, c := range p.inflight {
		if c > now {
			out = append(out, c)
		}
	}
	p.inflight = out
	if len(p.inflight)+txns > p.maxInflight {
		return 0, false
	}
	start := max(now, p.nextFree)
	last := start + uint64(txns-1)
	p.nextFree = last + 1
	for i := 0; i < txns; i++ {
		p.inflight = append(p.inflight, start+uint64(i)+uint64(p.latency))
	}
	return last + uint64(p.latency), true
}

// acceptsAt reports whether the reference would issue txns at cycle t,
// without changing it.
func (p *refPipe) acceptsAt(t uint64, txns int) bool {
	c := *p
	c.inflight = append([]uint64(nil), p.inflight...)
	_, ok := c.tryIssue(t, txns)
	return ok
}

// FuzzPipe drives Pipe and the reference with the same random issue
// stream (non-decreasing cycles, transaction counts that sometimes exceed
// the capacity): both must return identical (ready, ok), RoomAt must name
// exactly the first cycle at which the reference accepts, and the ring's
// backing array must stay within twice the capacity.
func FuzzPipe(f *testing.F) {
	f.Add(uint8(200), uint8(64), []byte{0, 1, 0, 32, 0, 32, 5, 9, 250, 64})
	f.Add(uint8(3), uint8(2), []byte{0, 2, 0, 1, 1, 3, 1, 2, 0, 2, 9, 0})
	f.Add(uint8(1), uint8(1), []byte{0, 1, 0, 1, 1, 1})
	f.Fuzz(func(t *testing.T, latency, capacity uint8, ops []byte) {
		lat, maxIn := int(latency)%64+1, int(capacity)%16+1
		p := NewPipe(lat, maxIn)
		ref := &refPipe{latency: lat, maxInflight: maxIn}
		now := uint64(0)
		for len(ops) >= 2 {
			now += uint64(ops[0] % 8)
			txns := int(ops[1]) % (maxIn + 3)
			ops = ops[2:]

			room, ok := p.RoomAt(now, txns)
			if txns > maxIn {
				if ok {
					t.Fatalf("RoomAt(%d, %d) = %d on a %d-entry pipe", now, txns, room, maxIn)
				}
			} else {
				first := now
				for !ref.acceptsAt(first, txns) {
					if first > now+uint64(lat+maxIn) {
						t.Fatalf("reference never accepts %d transactions after %d", txns, now)
					}
					first++
				}
				if !ok || room != first {
					t.Fatalf("RoomAt(%d, %d) = %d, %v; reference first accepts at %d", now, txns, room, ok, first)
				}
			}

			gotReady, gotOK := p.TryIssue(now, txns)
			wantReady, wantOK := ref.tryIssue(now, txns)
			if gotReady != wantReady || gotOK != wantOK {
				t.Fatalf("TryIssue(%d, %d) = %d, %v; reference %d, %v", now, txns, gotReady, gotOK, wantReady, wantOK)
			}
			if len(p.ring) > 2*maxIn {
				t.Fatalf("ring backing grew to %d entries for capacity %d", len(p.ring), maxIn)
			}
		}
	})
}

func TestCacheBasic(t *testing.T) {
	c := NewCache(2*SegmentBytes*2, 2) // 2 sets x 2 ways
	if c.Access(0) {
		t.Fatal("cold miss reported as hit")
	}
	if !c.Access(0) {
		t.Fatal("second access should hit")
	}
	// Fill set 0 beyond associativity: segments 0, 2, 4 map to set 0.
	c.Access(2)
	c.Access(4) // evicts LRU (segment 0)
	if c.Access(0) {
		t.Fatal("evicted line reported as hit")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("stats %d/%d, want 1/4", hits, misses)
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(SegmentBytes*2, 2) // 1 set x 2 ways
	c.Access(10)
	c.Access(20)
	c.Access(10) // refresh 10; 20 becomes LRU
	c.Access(30) // evicts 20
	if !c.Access(10) {
		t.Fatal("recently used line evicted")
	}
	if c.Access(20) {
		t.Fatal("LRU line survived")
	}
}

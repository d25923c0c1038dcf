package experiments

import (
	"testing"
)

// TestGemmTilingExhibits runs the gemm1-tiling family and checks the
// properties the family exists to demonstrate: ladder row order, one column
// per compared scheme, shared-memory serialization falling to zero along
// the ladder and register pressure rising monotonically.
func TestGemmTilingExhibits(t *testing.T) {
	r := fastRunner(t) // benchmark selection is ignored: the family is fixed
	schemes := schemeColumns()

	shared, err := r.Run("gemm1-tiling-shared")
	if err != nil {
		t.Fatal(err)
	}
	if len(shared.Rows) != len(gemmLadder) {
		t.Fatalf("%d rows, want %d", len(shared.Rows), len(gemmLadder))
	}
	col := map[string]int{}
	for i, c := range shared.Columns {
		col[c] = i
	}
	get := func(row int, name string) float64 { return shared.Rows[row].Values[col[name]] }
	for i, name := range gemmLadder {
		if shared.Rows[i].Label != name {
			t.Fatalf("row %d = %s, want ladder order %v", i, shared.Rows[i].Label, gemmLadder)
		}
	}
	// Serialization: block (8-way) > warp (4-way) > reg = naive = 0.
	if v := get(0, "serialize_cyc"); v != 0 {
		t.Errorf("gemm_naive serialization %v, want 0 (no shared memory)", v)
	}
	if v := get(3, "serialize_cyc"); v != 0 {
		t.Errorf("gemm_reg serialization %v, want 0 (padded layout)", v)
	}
	if b, w := get(1, "serialize_cyc"), get(2, "serialize_cyc"); !(b > w && w > 0) {
		t.Errorf("serialization not falling along ladder: block=%v warp=%v", b, w)
	}
	// Register pressure rises monotonically.
	for i := 1; i < len(gemmLadder); i++ {
		if get(i, "regs/thread") <= get(i-1, "regs/thread") {
			t.Errorf("regs/thread not rising: %s=%v, %s=%v",
				shared.Rows[i-1].Label, get(i-1, "regs/thread"),
				shared.Rows[i].Label, get(i, "regs/thread"))
		}
	}
	// gemm_naive touches shared memory not at all.
	if v := get(0, "accesses"); v != 0 {
		t.Errorf("gemm_naive shared accesses %v, want 0", v)
	}

	ratio, err := r.Run("gemm1-tiling-ratio")
	if err != nil {
		t.Fatal(err)
	}
	if len(ratio.Columns) != len(schemes) {
		t.Fatalf("ratio columns %v, want one per scheme %v", ratio.Columns, schemes)
	}
	for _, row := range ratio.Rows {
		for i, v := range row.Values {
			if v < 1-1e-9 || v > 16 {
				t.Errorf("%s/%s: compression ratio %v out of range", row.Label, schemes[i], v)
			}
		}
	}

	en, err := r.Run("gemm1-tiling-energy")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range en.Rows {
		for i, v := range row.Values {
			if v <= 0 || v > 1.5 {
				t.Errorf("%s/%s: normalized energy %v out of range", row.Label, schemes[i], v)
			}
		}
	}

	tm, err := r.Run("gemm1-tiling-time")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tm.Rows {
		for i, v := range row.Values {
			if v < 0.9 || v > 2.0 {
				t.Errorf("%s/%s: normalized time %v out of range", row.Label, schemes[i], v)
			}
		}
	}
}

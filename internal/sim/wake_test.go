package sim

import (
	"errors"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// TestOversizeAccessEndsInMaxCycles: a global load whose 32 segments can
// never fit an 8-entry memory pipe leaves its SM asleep with no wake cycle.
// The launch must still end in ErrMaxCycles at the configured bound, as it
// did when the blocked instruction retried every cycle.
func TestOversizeAccessEndsInMaxCycles(t *testing.T) {
	c := testConfig()
	c.GlobalMaxInflight = 8
	c.L1SizeKB = 0
	c.MaxCycles = 20_000
	src := `
	mov  r0, %tid.x
	shl  r1, r0, 7
	ld.global r2, [r1]
	st.global [r1], r2
	exit
`
	g, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	k, err := asm.Assemble("oversize", src)
	if err != nil {
		t.Fatal(err)
	}
	_, err = g.Run(isa.Launch{Kernel: k, Grid: isa.Dim3{X: 2}, Block: isa.Dim3{X: 32}})
	if !errors.Is(err, ErrMaxCycles) {
		t.Fatalf("Run = %v, want ErrMaxCycles", err)
	}
}

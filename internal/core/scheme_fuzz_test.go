package core

import (
	"encoding/binary"
	"testing"
)

// FuzzSchemeRoundTrip drives every registered backend (schemes/v1) with
// arbitrary warp images: Choose must pick a class the compressibility probe
// accepts, each fixed-choice bdi design must compress exactly the
// registers whose dynamic bdi choice nests inside its parameter set,
// CompressInto must agree with Compressible and either fail
// cleanly (ok=false) or round-trip exactly at the advertised size, bank
// counts must stay physical, and truncated images must be rejected rather
// than crash.
func FuzzSchemeRoundTrip(f *testing.F) {
	f.Add(make([]byte, WarpBytes), uint8(0))
	affine := make([]byte, WarpBytes)
	for i := range affine {
		affine[i] = byte(i)
	}
	f.Add(affine, uint8(1))
	short := make([]byte, WarpBytes)
	f.Add(short[:17], uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, ti uint8) {
		if len(data) != WarpBytes {
			return
		}
		var vals WarpReg
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		dyn := bdiScheme{name: "bdi"}.Choose(0, &vals)
		for _, name := range Schemes() {
			comp, err := NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := comp.(KernelTableBinder); ok {
				// Bind a varied per-register table so the profile-guided
				// path runs, not just the unbound fallback.
				table := make([]Encoding, 8)
				for i := range table {
					table[i] = Encoding((int(ti) + i) % NumEncodings)
				}
				b.BindTable(table)
			}
			if n := comp.NumClasses(); n < 1 || n > NumEncodings {
				t.Fatalf("%s: NumClasses = %d", name, n)
			}
			for reg := 0; reg < 8; reg++ {
				e := comp.Choose(reg, &vals)
				if !comp.Compressible(&vals, e) {
					t.Fatalf("%s: Choose(reg %d) = %v but the probe rejects it", name, reg, e)
				}
			}
			if b, ok := comp.(bdiScheme); ok && b.fixed != EncUncompressed {
				want := EncUncompressed
				if dyn != EncUncompressed && dyn <= b.fixed {
					want = b.fixed
				}
				if e := comp.Choose(0, &vals); e != want {
					t.Fatalf("%s: chose %v where dynamic bdi chose %v, want %v", name, e, dyn, want)
				}
			}
			buf := make([]byte, 0, WarpBytes)
			for ci := 0; ci < comp.NumClasses(); ci++ {
				e := Encoding(ci)
				var ok bool
				buf, ok = comp.CompressInto(buf[:0], &vals, e)
				if ok != comp.Compressible(&vals, e) {
					t.Fatalf("%s/%s: CompressInto ok=%v disagrees with Compressible", name, comp.ClassName(e), ok)
				}
				if !ok {
					continue
				}
				if len(buf) != comp.CompressedBytes(e) {
					t.Fatalf("%s/%s: compressed size %d, want %d", name, comp.ClassName(e), len(buf), comp.CompressedBytes(e))
				}
				if bk := comp.Banks(e); bk < 1 || bk > WarpBanks {
					t.Fatalf("%s/%s: %d banks", name, comp.ClassName(e), bk)
				}
				var out WarpReg
				if err := comp.Decompress(buf, e, &out); err != nil {
					t.Fatalf("%s/%s: decompress: %v", name, comp.ClassName(e), err)
				}
				if out != vals {
					t.Fatalf("%s/%s: round trip mismatch", name, comp.ClassName(e))
				}
				if len(buf) > 0 {
					if err := comp.Decompress(buf[:len(buf)-1], e, &out); err == nil {
						t.Fatalf("%s/%s: truncated image accepted", name, comp.ClassName(e))
					}
				}
			}
		}
	})
}

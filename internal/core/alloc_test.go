package core

import "testing"

// TestCompressionHotPathAllocFree pins the allocation-free contract of the
// per-register-access primitives: serializing a warp register into a reused
// buffer, compressing into a reused buffer, decompressing into a caller
// buffer, and classifying an encoding must not touch the heap.
func TestCompressionHotPathAllocFree(t *testing.T) {
	var w WarpReg
	for i := range w {
		w[i] = uint32(100 + 3*i)
	}
	p := Params{Base: 4, Delta: 1}
	data := make([]byte, 0, WarpBytes)
	comp := make([]byte, 0, p.CompressedSize())
	out := make([]byte, WarpBytes)
	bdi, err := NewCompressor("bdi")
	if err != nil {
		t.Fatal(err)
	}

	var failure string
	allocs := testing.AllocsPerRun(200, func() {
		data = w.AppendBytes(data[:0])
		var ok bool
		comp, ok = CompressInto(comp[:0], data, p)
		if !ok {
			failure = "data not compressible with <4,1>"
			return
		}
		if err := Decompress(comp, p, out); err != nil {
			failure = err.Error()
			return
		}
		if bdi.Choose(0, &w) != Enc41 {
			failure = "unexpected encoding choice"
		}
	})
	if failure != "" {
		t.Fatal(failure)
	}
	if allocs != 0 {
		t.Fatalf("compress/decompress round trip allocates %.1f objects/op, want 0", allocs)
	}
	for i := 0; i < WarpBytes; i++ {
		if data[i] != out[i] {
			t.Fatalf("round trip mismatch at byte %d: %#x != %#x", i, data[i], out[i])
		}
	}
}

// TestSchemeHotPathAllocFree extends the allocation-free contract to every
// registered backend: Choose + CompressInto + Decompress with caller-owned
// buffers must not touch the heap, whichever scheme the simulator runs.
func TestSchemeHotPathAllocFree(t *testing.T) {
	for _, name := range Schemes() {
		t.Run(name, func(t *testing.T) {
			c, err := NewCompressor(name)
			if err != nil {
				t.Fatal(err)
			}
			if b, ok := c.(KernelTableBinder); ok {
				table := make([]Encoding, 8)
				for i := range table {
					table[i] = Enc40
				}
				b.BindTable(table)
			}
			var w WarpReg
			for i := range w {
				w[i] = 7 // uniform: every scheme has a compressed class for it
			}
			buf := make([]byte, 0, WarpBytes)
			var out WarpReg

			var failure string
			allocs := testing.AllocsPerRun(200, func() {
				e := c.Choose(3, &w)
				if e == EncUncompressed {
					failure = "uniform vector left uncompressed"
					return
				}
				var ok bool
				buf, ok = c.CompressInto(buf[:0], &w, e)
				if !ok {
					failure = "CompressInto rejected the chosen class"
					return
				}
				if err := c.Decompress(buf, e, &out); err != nil {
					failure = err.Error()
					return
				}
				if out != w {
					failure = "round trip mismatch"
				}
			})
			if failure != "" {
				t.Fatal(failure)
			}
			if allocs != 0 {
				t.Fatalf("%s hot path allocates %.1f objects/op, want 0", name, allocs)
			}
		})
	}
}

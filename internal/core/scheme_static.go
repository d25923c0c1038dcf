package core

// staticScheme is the static, profile-guided compressor after Angerd et al.
// (arXiv 2006.05693): instead of probing every write dynamically, a
// compile-time value-shape analysis (valueprof.StaticTable) assigns each
// architectural destination register a fixed encoding class for the whole
// kernel, and the hardware only has to verify at write time that the value
// still fits the preassigned class (falling back to uncompressed when it
// does not). The codec itself is the same BDI <4,δ> family, so the scheme
// isolates the cost of *choice* — the table read replaces BDI's
// priority-select over three candidate widths.
//
// The table is a pure function of the kernel image, which keeps record,
// replay and every SM-shard count byte-identical: the simulator derives and
// binds it at launch via the KernelTableBinder interface.
type staticScheme struct {
	table []Encoding
}

func (*staticScheme) Name() string    { return "static" }
func (*staticScheme) NumClasses() int { return NumEncodings }

func (*staticScheme) ClassName(e Encoding) string    { return e.String() }
func (*staticScheme) Banks(e Encoding) int           { return e.Banks() }
func (*staticScheme) CompressedBytes(e Encoding) int { return e.CompressedBytes() }

func (*staticScheme) Compressible(vals *WarpReg, e Encoding) bool {
	return bdiScheme{}.Compressible(vals, e)
}

// BindTable installs the per-register encoding table for the next kernel.
func (s *staticScheme) BindTable(table []Encoding) {
	s.table = append(s.table[:0], table...)
}

func (s *staticScheme) Choose(reg int, vals *WarpReg) Encoding {
	if reg < 0 || reg >= len(s.table) {
		return EncUncompressed
	}
	e := s.table[reg]
	if e == EncUncompressed || !s.Compressible(vals, e) {
		// The profile promised a shape the dynamic value broke; store
		// uncompressed rather than corrupt (Angerd's overflow path).
		return EncUncompressed
	}
	return e
}

func (*staticScheme) CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool) {
	return bdiScheme{}.CompressInto(dst, vals, e)
}

func (*staticScheme) Decompress(comp []byte, e Encoding, out *WarpReg) error {
	return bdiScheme{}.Decompress(comp, e, out)
}

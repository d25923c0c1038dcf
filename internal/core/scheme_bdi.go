package core

import "fmt"

// bdiScheme is the paper's compressor: base-delta-immediate over the three
// fixed parameter choices <4,0>, <4,1>, <4,2> (Figure 7). It is registered
// four times: "bdi" picks the smallest fitting choice dynamically (the
// DefaultScheme), and "bdi40", "bdi41" and "bdi42" are the paper's §6.6
// fixed-choice designs (Figs 15/16), which store every register that fits
// the one parameter set under it and leave the rest uncompressed. "bdi40"
// is equivalent to scalarization [33].
type bdiScheme struct {
	name string
	// fixed is the single encoding a fixed-choice design stores, or
	// EncUncompressed for the dynamic choice.
	fixed Encoding
}

func (s bdiScheme) Name() string  { return s.name }
func (bdiScheme) NumClasses() int { return NumEncodings }

func (bdiScheme) ClassName(e Encoding) string { return e.String() }
func (bdiScheme) Banks(e Encoding) int        { return e.Banks() }

func (bdiScheme) CompressedBytes(e Encoding) int { return e.CompressedBytes() }

func (bdiScheme) Compressible(vals *WarpReg, e Encoding) bool {
	if e == EncUncompressed {
		return true
	}
	return deltaWidth(vals) <= int(e.Params().Delta)
}

// Choose evaluates lane similarity with the first lane as the base,
// mirroring the single-base hardware compressor of paper Figure 7.
func (s bdiScheme) Choose(reg int, vals *WarpReg) Encoding {
	width := deltaWidth(vals)
	if width > 2 {
		return EncUncompressed
	}
	best := [3]Encoding{Enc40, Enc41, Enc42}[width]
	switch {
	case s.fixed == EncUncompressed:
		return best
	case best <= s.fixed:
		// The choices nest, so a narrower fit also fits the fixed
		// parameter set (stored with its wider deltas).
		return s.fixed
	}
	return EncUncompressed
}

func (bdiScheme) CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool) {
	if e == EncUncompressed {
		return vals.AppendBytes(dst), true
	}
	var buf [WarpBytes]byte
	data := vals.AppendBytes(buf[:0])
	return CompressInto(dst, data, e.Params())
}

func (bdiScheme) Decompress(comp []byte, e Encoding, out *WarpReg) error {
	if e == EncUncompressed {
		w, err := WarpRegFromBytes(comp)
		if err != nil {
			return err
		}
		*out = w
		return nil
	}
	var buf [WarpBytes]byte
	if err := Decompress(comp, e.Params(), buf[:]); err != nil {
		return err
	}
	w, err := WarpRegFromBytes(buf[:])
	if err != nil {
		return fmt.Errorf("core: bdi decompress: %w", err)
	}
	*out = w
	return nil
}

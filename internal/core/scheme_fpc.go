package core

import (
	"encoding/binary"
	"fmt"
)

// fpcScheme is a cheap frequent-pattern compressor in the spirit of FPC
// [Alameldeen & Wood]: instead of BDI's delta arithmetic it matches three
// fixed value patterns that dominate GPU register traffic — the all-zero
// register, the scalar (all lanes equal) register, and the narrow register
// whose every lane fits a sign-extended int8. Pattern detection is pure
// comparator logic, which is what makes the scheme's compression energy
// cheap relative to BDI (see energy.SchemeCost).
type fpcScheme struct{}

// FPC reuses the Encoding tag space with its own class meanings. Class 0
// stays uncompressed by the Compressor contract.
const (
	fpcZero   = Enc40 // all 32 lanes zero; 4 bytes, 1 bank
	fpcRepeat = Enc41 // all 32 lanes equal; 4 bytes, 1 bank
	fpcNarrow = Enc42 // every lane sign-extends from int8; 32 bytes, 2 banks
)

var fpcBanks = [NumEncodings]int{
	EncUncompressed: WarpBanks,
	fpcZero:         1,
	fpcRepeat:       1,
	fpcNarrow:       2,
}

var fpcBytes = [NumEncodings]int{
	EncUncompressed: WarpBytes,
	fpcZero:         4,
	fpcRepeat:       4,
	fpcNarrow:       32,
}

func (fpcScheme) Name() string    { return "fpc" }
func (fpcScheme) NumClasses() int { return NumEncodings }

func (fpcScheme) ClassName(e Encoding) string {
	switch e {
	case EncUncompressed:
		return "uncompressed"
	case fpcZero:
		return "zero"
	case fpcRepeat:
		return "repeat"
	case fpcNarrow:
		return "narrow8"
	}
	return fmt.Sprintf("fpc%d", uint8(e))
}

func (fpcScheme) Banks(e Encoding) int           { return fpcBanks[e] }
func (fpcScheme) CompressedBytes(e Encoding) int { return fpcBytes[e] }

func (fpcScheme) Compressible(vals *WarpReg, e Encoding) bool {
	switch e {
	case EncUncompressed:
		return true
	case fpcZero:
		for _, v := range vals {
			if v != 0 {
				return false
			}
		}
		return true
	case fpcRepeat:
		for _, v := range vals[1:] {
			if v != vals[0] {
				return false
			}
		}
		return true
	case fpcNarrow:
		for _, v := range vals {
			if d := int32(v); d < -128 || d >= 128 {
				return false
			}
		}
		return true
	}
	return false
}

func (s fpcScheme) Choose(reg int, vals *WarpReg) Encoding {
	// The patterns nest only partially (zero ⊂ repeat, zero ⊂ narrow), so
	// probe smallest-first: zero and repeat tie on size but zero needs no
	// base read on decompression.
	if s.Compressible(vals, fpcZero) {
		return fpcZero
	}
	if s.Compressible(vals, fpcRepeat) {
		return fpcRepeat
	}
	if s.Compressible(vals, fpcNarrow) {
		return fpcNarrow
	}
	return EncUncompressed
}

func (s fpcScheme) CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool) {
	if !s.Compressible(vals, e) {
		return dst, false
	}
	switch e {
	case EncUncompressed:
		return vals.AppendBytes(dst), true
	case fpcZero, fpcRepeat:
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], vals[0])
		return append(dst, b[:]...), true
	case fpcNarrow:
		var b [32]byte
		for i, v := range vals {
			b[i] = byte(v)
		}
		return append(dst, b[:]...), true
	}
	return dst, false
}

func (fpcScheme) Decompress(comp []byte, e Encoding, out *WarpReg) error {
	if want := fpcBytes[e]; len(comp) != want {
		return fmt.Errorf("core: fpc class %d image must be %d bytes, got %d", uint8(e), want, len(comp))
	}
	switch e {
	case EncUncompressed:
		w, err := WarpRegFromBytes(comp)
		if err != nil {
			return err
		}
		*out = w
		return nil
	case fpcZero, fpcRepeat:
		v := binary.LittleEndian.Uint32(comp)
		for i := range out {
			out[i] = v
		}
		return nil
	case fpcNarrow:
		for i := range out {
			out[i] = uint32(int32(int8(comp[i])))
		}
		return nil
	}
	return fmt.Errorf("core: fpc decompress: invalid class %d", uint8(e))
}

package core

import (
	"fmt"
	"sort"
)

// SchemeRegistryVersion names the compression-backend registry contract.
// Scheme names registered under schemes/v1 are stable identifiers: they
// appear in the cfg/v2 configuration signature, in the jobs/server API
// (compression_scheme) and in exhibit column headers, so renaming or
// re-meaning a registered scheme requires a registry version bump.
const SchemeRegistryVersion = "schemes/v1"

// DefaultScheme is the compression backend used when a configuration does
// not name one: the paper's BDI variant.
const DefaultScheme = "bdi"

// Compressor is one pluggable register-compression backend.
//
// A compressor classifies each full-warp register write into one of at most
// NumEncodings pattern classes (class 0 is always "uncompressed", full
// WarpBytes across WarpBanks banks) and provides the codec for each class.
// All methods on the hot path (Choose, Compressible, CompressInto,
// Decompress) must be allocation-free given caller-owned buffers; the fuzz
// and AllocsPerRun tests in this package enforce that for every registered
// scheme.
//
// The reg argument of Choose is the destination register index; dynamic
// schemes ignore it, while table-driven schemes (static) use it to look up
// the per-kernel encoding table.
type Compressor interface {
	// Name returns the registered scheme name ("bdi", "fpc", ...).
	Name() string
	// NumClasses returns how many encoding classes the scheme uses,
	// 1 <= NumClasses <= NumEncodings. Class 0 is always uncompressed.
	NumClasses() int
	// ClassName names an encoding class for reports and exhibits.
	ClassName(e Encoding) string
	// Banks returns how many 16-byte register banks class e occupies.
	Banks(e Encoding) int
	// CompressedBytes returns the stored size of class e.
	CompressedBytes(e Encoding) int
	// Compressible reports whether vals can be stored under class e
	// losslessly. Class EncUncompressed is always compressible.
	Compressible(vals *WarpReg, e Encoding) bool
	// Choose returns the class the compressor stores for a full-warp
	// write of vals to register reg.
	Choose(reg int, vals *WarpReg) Encoding
	// CompressInto appends the class-e image of vals to dst and returns
	// the extended slice, or ok=false when vals does not fit class e.
	// With a dst of sufficient capacity it performs no heap allocation.
	CompressInto(dst []byte, vals *WarpReg, e Encoding) ([]byte, bool)
	// Decompress parses a class-e image produced by CompressInto back
	// into lane values.
	Decompress(comp []byte, e Encoding, out *WarpReg) error
}

// KernelTableBinder is implemented by table-driven compressors (the static
// scheme) that derive a per-kernel, per-register encoding table at launch
// time. The simulator binds the table before each launch; dynamic schemes
// simply don't implement the interface.
type KernelTableBinder interface {
	// BindTable installs the per-register encoding table for the kernel
	// about to run. The table is copied; nil or empty unbinds.
	BindTable(table []Encoding)
}

// schemeEntry is one registered backend.
type schemeEntry struct {
	factory func() Compressor
	ordinal int
}

var schemes = map[string]schemeEntry{}

// RegisterScheme adds a compression backend under name. Registering a
// duplicate name panics: scheme names are part of the schemes/v1 contract.
func RegisterScheme(name string, factory func() Compressor) {
	if name == "" {
		panic("core: RegisterScheme with empty name")
	}
	if _, dup := schemes[name]; dup {
		panic(fmt.Sprintf("core: compression scheme %q registered twice", name))
	}
	schemes[name] = schemeEntry{factory: factory, ordinal: len(schemes) + 1}
}

// SchemeRegistered reports whether name is a registered backend. The empty
// string is the legacy spelling of DefaultScheme and is accepted.
func SchemeRegistered(name string) bool {
	if name == "" {
		return true
	}
	_, ok := schemes[name]
	return ok
}

// Schemes returns the registered backend names in sorted order.
func Schemes() []string {
	out := make([]string, 0, len(schemes))
	for name := range schemes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ResolveScheme maps the empty legacy spelling to DefaultScheme and leaves
// every other name untouched.
func ResolveScheme(name string) string {
	if name == "" {
		return DefaultScheme
	}
	return name
}

// NewCompressor builds a fresh instance of the named backend. The empty
// name resolves to DefaultScheme. Unknown names are an error (the sim
// config validator surfaces it as a client error).
func NewCompressor(name string) (Compressor, error) {
	name = ResolveScheme(name)
	e, ok := schemes[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown compression scheme %q (registered: %v)", name, Schemes())
	}
	return e.factory(), nil
}

// BankTable returns the per-class bank occupancy of a compressor as a fixed
// array, the form the register file configuration consumes. Classes beyond
// NumClasses occupy the full WarpBanks so a stray tag can never under-count.
func BankTable(c Compressor) [NumEncodings]int {
	var t [NumEncodings]int
	for i := range t {
		if i < c.NumClasses() {
			t[i] = c.Banks(Encoding(i))
		} else {
			t[i] = WarpBanks
		}
	}
	return t
}

func init() {
	RegisterScheme("bdi", func() Compressor { return bdiScheme{name: "bdi"} })
	RegisterScheme("bdi40", func() Compressor { return bdiScheme{"bdi40", Enc40} })
	RegisterScheme("bdi41", func() Compressor { return bdiScheme{"bdi41", Enc41} })
	RegisterScheme("bdi42", func() Compressor { return bdiScheme{"bdi42", Enc42} })
	RegisterScheme("static", func() Compressor { return &staticScheme{} })
	RegisterScheme("fpc", func() Compressor { return fpcScheme{} })
}

package energy

// SchemeCost describes the compression-hardware costs of one registered
// compression backend (core schemes/v1): the per-activation energies and
// leakage of its compressor/decompressor units, and the pipeline latencies
// the timing model should charge. The bdi entry is paper Table 3 verbatim;
// the static and fpc entries are estimates derived from the relative logic
// each scheme needs (DESIGN.md §18 states the derivation and its honesty
// caveats — they are not synthesis results).
type SchemeCost struct {
	CompActPJ    float64
	DecompActPJ  float64
	CompLeakMW   float64
	DecompLeakMW float64

	CompressLatency   int // cycles per compression
	DecompressLatency int // cycles per decompression
}

// bdiCost is the paper's BDI compressor: a 31-way parallel subtractor tree
// plus a priority select over three candidate widths (Table 3, Fig 20/21
// default latencies).
var bdiCost = SchemeCost{
	CompActPJ:         23,
	DecompActPJ:       21,
	CompLeakMW:        0.12,
	DecompLeakMW:      0.08,
	CompressLatency:   2,
	DecompressLatency: 1,
}

// schemeCosts is keyed by registered scheme name.
var schemeCosts = map[string]SchemeCost{
	"bdi": bdiCost,
	// The §6.6 fixed-choice designs keep the same units: the paper
	// evaluates Figs 15/16 with Table 3 unchanged.
	"bdi40": bdiCost,
	"bdi41": bdiCost,
	"bdi42": bdiCost,
	// Static/profile-guided (Angerd): the encoding choice is a table read,
	// so only the fit-check subtractors remain on the compress path and one
	// pipeline stage disappears; the BDI decompressor is unchanged.
	"static": {
		CompActPJ:         14,
		DecompActPJ:       21,
		CompLeakMW:        0.07,
		DecompLeakMW:      0.08,
		CompressLatency:   1,
		DecompressLatency: 1,
	},
	// FPC-style frequent-pattern: pattern match and expansion are pure
	// comparator / replication logic, no delta arithmetic on either path.
	"fpc": {
		CompActPJ:         8,
		DecompActPJ:       6,
		CompLeakMW:        0.04,
		DecompLeakMW:      0.03,
		CompressLatency:   1,
		DecompressLatency: 1,
	},
}

// CostOfScheme returns the unit costs for a registered scheme name ("" means
// the default bdi scheme). Unknown names fall back to the bdi entry: the
// sim config validator rejects them long before energy accounting runs, so
// the fallback only defends exhibits against future scheme additions that
// lack a cost entry.
func CostOfScheme(name string) SchemeCost {
	if name == "" {
		name = "bdi"
	}
	if c, ok := schemeCosts[name]; ok {
		return c
	}
	return schemeCosts["bdi"]
}

// ParamsForScheme returns DefaultParams with the compression-unit constants
// replaced by the named scheme's costs; bank, wire and RFC constants are
// scheme-independent.
func ParamsForScheme(name string) Params {
	p := DefaultParams()
	c := CostOfScheme(name)
	p.CompActPJ = c.CompActPJ
	p.DecompActPJ = c.DecompActPJ
	p.CompLeakMW = c.CompLeakMW
	p.DecompLeakMW = c.DecompLeakMW
	return p
}

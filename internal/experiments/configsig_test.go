package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestConfigSignatureVersioned pins the version prefix: cache keys are
// persisted by the serving layer, so the format must announce itself.
func TestConfigSignatureVersioned(t *testing.T) {
	c := sim.DefaultConfig()
	s := ConfigSignature(&c)
	if !strings.HasPrefix(s, ConfigSignatureVersion+":") {
		t.Fatalf("signature %q missing version prefix %q", s, ConfigSignatureVersion)
	}
	if ConfigSignatureVersion != "cfg/v2" {
		t.Fatalf("ConfigSignatureVersion = %q; bumping it invalidates every persisted cache key — make sure that is intended, then update this test", ConfigSignatureVersion)
	}
}

// TestConfigSignatureDeterministic: equal configs produce equal signatures,
// and the signature is a pure function (no hidden state).
func TestConfigSignatureDeterministic(t *testing.T) {
	a, b := sim.DefaultConfig(), sim.DefaultConfig()
	if ConfigSignature(&a) != ConfigSignature(&b) {
		t.Fatal("equal configs produced different signatures")
	}
	if ConfigSignature(&a) != ConfigSignature(&a) {
		t.Fatal("signature not deterministic")
	}
}

// perturb changes one struct field to a value distinct from its current
// one, recursing into nested structs (faults.Config) by perturbing their
// first leaf field.
func perturb(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		if v.String() == "gto" {
			v.SetString("lrr") // keep Scheduler a real policy
		} else {
			v.SetString(v.String() + "x")
		}
	case reflect.Struct:
		perturb(v.Field(0))
	default:
		panic("perturb: unhandled kind " + v.Kind().String())
	}
}

// TestConfigSignatureCoversConfig enforces the signature's contract field
// by field: changing ANY sim.Config field must change the signature. A new
// field added to sim.Config fails here until it is added to
// ConfigSignature (or explicitly exempted), which is exactly the point —
// an uncovered field silently aliases cache entries.
func TestConfigSignatureCoversConfig(t *testing.T) {
	base := sim.DefaultConfig()
	want := ConfigSignature(&base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Name == "SMParallel" {
			// Exempt by design: shard count never changes results (the
			// epoch-barrier commit makes them byte-identical at every
			// SMParallel, enforced by internal/sim's determinism tests), so
			// covering it would fragment the memo cache for no gain.
			continue
		}
		mod := base
		perturb(reflect.ValueOf(&mod).Elem().Field(i))
		if got := ConfigSignature(&mod); got == want {
			t.Errorf("changing Config.%s did not change the signature (%q)", f.Name, got)
		}
	}
}

// TestConfigSignatureCompressionScheme pins the compression-axis identity
// contract: the legacy empty spelling and the explicit default scheme run
// the same simulation and must share one cache identity, while each of the
// seven axis values must get its own (result/store caches may never alias
// across them).
func TestConfigSignatureCompressionScheme(t *testing.T) {
	base := sim.DefaultConfig()
	want := ConfigSignature(&base)

	bdi := base
	bdi.Compression = "bdi"
	if got := ConfigSignature(&bdi); got != want {
		t.Errorf("empty Compression and %q must share a signature:\n  %q\n  %q", "bdi", want, got)
	}
	values := []string{"off", "bdi", "bdi40", "bdi41", "bdi42", "fpc", "static"}
	if got := sim.CompressionValues(); !reflect.DeepEqual(got, values) {
		t.Fatalf("compression axis = %v, want %v", got, values)
	}
	seen := map[string]string{}
	for _, v := range values {
		mod := base
		mod.Compression = v
		s := ConfigSignature(&mod)
		if prev, dup := seen[s]; dup {
			t.Errorf("compression %q aliases %q: %q", v, prev, s)
		}
		seen[s] = v
	}
}

// TestConfigSignatureFaultFields: every fault knob must alter the
// signature individually (the exhibit that varies them depends on it).
func TestConfigSignatureFaultFields(t *testing.T) {
	base := sim.DefaultConfig()
	want := ConfigSignature(&base)
	for _, mut := range []func(*sim.Config){
		func(c *sim.Config) { c.Faults.Seed = 42 },
		func(c *sim.Config) { c.Faults.StuckAtBanks = 2 },
		func(c *sim.Config) { c.Faults.TransientPerM = 100 },
		func(c *sim.Config) { c.Faults.Redirect = true },
	} {
		mod := base
		mut(&mod)
		if ConfigSignature(&mod) == want {
			t.Errorf("fault mutation did not change signature: %+v", mod.Faults)
		}
	}
}

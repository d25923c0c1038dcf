package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernels"
)

// resultHashMaxCycles bounds every pinned run. The longest small-scale
// kernel finishes in about 25k cycles; a launch that can never finish (an
// access needing more transactions than GlobalMaxInflight admits, or a
// fault-corrupted loop bound) pins its ErrMaxCycles text after 200k.
const resultHashMaxCycles = 200_000

// resultHashConfigs names the machine configurations the result-hash table
// pins. The bdi4x rows fix the paper's single-choice BDI design points
// (Figs 15/16). Each other one exercises a counter or timing path of the cycle loop that
// a skipped (quiescent) cycle must charge exactly as a stepped one would:
// scheduler stall counters, drowsy and gated bank cycles, the register file
// cache, bank wakeups, the recompress merge reads, fault corruption, a
// saturated memory pipe, the sharded epoch commit, CTAs that queue for a
// free slot and launch onto an SM mid-run, a single scheduler owning every
// warp slot, and a 128-slot SM whose live warps reach past slot 64.
func resultHashConfigs() []struct {
	name string
	cfg  Config
} {
	base := func(mut func(c *Config)) Config {
		c := DefaultConfig()
		c.MaxCycles = resultHashMaxCycles
		mut(&c)
		return c
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"bdi", base(func(c *Config) {})},
		{"baseline", base(func(c *Config) { c.Compression, c.PowerGating = CompressionOff, false })},
		{"fpc", base(func(c *Config) { c.Compression = "fpc" })},
		{"static", base(func(c *Config) { c.Compression = "static" })},
		{"bdi40", base(func(c *Config) { c.Compression = "bdi40" })},
		{"bdi41", base(func(c *Config) { c.Compression = "bdi41" })},
		{"bdi42", base(func(c *Config) { c.Compression = "bdi42" })},
		{"lrr", base(func(c *Config) { c.Scheduler = "lrr" })},
		{"drowsy8", base(func(c *Config) { c.DrowsyAfter = 8 })},
		{"rfc4", base(func(c *Config) {
			c.Compression, c.PowerGating = CompressionOff, false
			c.RFCEntries = 4
		})},
		{"wakeup40", base(func(c *Config) { c.BankWakeupLatency = 40 })},
		{"recompress", base(func(c *Config) { c.DivergencePolicy = "recompress" })},
		{"faults", base(func(c *Config) {
			c.Faults = faults.Config{StuckAtBanks: 2, TransientPerM: 1000, Redirect: true}
		})},
		{"inflight8", base(func(c *Config) { c.GlobalMaxInflight = 8 })},
		{"epoch4x4", base(func(c *Config) { c.SMEpoch, c.SMParallel = 4, 4 })},
		{"queued", base(func(c *Config) { c.NumSMs, c.MaxCTAsPerSM = 2, 1 })},
		{"sched1", base(func(c *Config) { c.SchedulersPerSM = 1 })},
		{"wide", base(func(c *Config) {
			c.NumSMs, c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.SchedulersPerSM = 1, 128, 16, 4
		})},
	}
}

// TestResultHashTable pins the simulated machine: the sha256 of the
// warped.sim.result/v1 bytes of every registered kernel at small scale,
// under every configuration above. Execute ≡ replay ≡ every shard count
// only proves that the simulator agrees with itself; this table proves it
// still agrees with the machine it simulated when the table was written,
// so a cycle-loop optimization that shifts any counter by one fails here.
// A run that errors (fault injection may corrupt a loop bound) pins its
// error text instead. Regenerate with
// `go test ./internal/sim -run ResultHashTable -update` only for a
// deliberate change to the simulated machine.
func TestResultHashTable(t *testing.T) {
	got := map[string]string{}
	for _, hc := range resultHashConfigs() {
		for _, name := range kernels.Names() {
			got[hc.name+"/"+name] = resultHash(t, hc.cfg, name)
		}
	}

	table := filepath.Join("testdata", "result_hashes.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(table, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(table)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	keys := make([]string, 0, len(got)+len(want))
	for k := range got {
		keys = append(keys, k)
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Errorf("%s: result hash %q, table has %q", k, got[k], want[k])
		}
	}
}

// resultHash runs one registered kernel at small scale and returns the
// hex sha256 of its result/v1 bytes, or "error: ..." when the run fails.
func resultHash(t *testing.T, c Config, name string) string {
	t.Helper()
	b, ok := kernels.ByName(name)
	if !ok {
		t.Fatalf("benchmark %q not registered", name)
	}
	g, err := New(c)
	if err != nil {
		t.Fatalf("%s: New: %v", name, err)
	}
	inst, err := b.Build(g.Mem(), kernels.Small)
	if err != nil {
		t.Fatalf("%s: Build: %v", name, err)
	}
	res, err := g.Run(inst.Launch)
	if err != nil {
		return "error: " + err.Error()
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

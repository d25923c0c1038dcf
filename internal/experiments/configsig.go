package experiments

import (
	"fmt"

	"repro/internal/sim"
)

// ConfigSignatureVersion identifies the signature format ConfigSignature
// emits. Bump it whenever the format changes — when a field is added to or
// removed from the signature, or an existing field's rendering changes —
// so persisted caches keyed by old signatures can never alias new ones.
const ConfigSignatureVersion = "cfg/v2"

// ConfigSignature renders a sim.Config as a stable, versioned string that
// is equal exactly when two configurations produce identical simulations.
// It is the shared identity used by the engine's single-flight memo cache,
// the serving layer's result cache (internal/jobs) and every progress
// event and job error — one implementation, so the caches can never drift.
//
// Every field that can change a simulation's outcome must appear here: the
// fault-injection exhibit, for example, varies Faults and MaxCycles on top
// of otherwise identical configs, and omitting either would silently alias
// its cache entries with the clean runs. TestConfigSignatureCoversConfig
// enforces coverage field by field.
func ConfigSignature(c *sim.Config) string {
	return ConfigSignatureVersion + ":" +
		fmt.Sprintf("c%s g%t s%s cl%d dl%d ch%t sm%d w%d cta%d col%d c%d d%d wake%d dp%s",
			c.CompressionScheme(), c.PowerGating, c.Scheduler, c.CompressLatency, c.DecompressLatency,
			c.CharacterizeWrites, c.NumSMs, c.MaxWarpsPerSM, c.MaxCTAsPerSM, c.Collectors,
			c.Compressors, c.Decompressors, c.BankWakeupLatency, c.DivergencePolicy) +
		fmt.Sprintf(" sch%d alu%d sfu%d gm%d gl%d gi%d sl%d l1%d/%d/%d rfc%d drw%d mc%d ep%d flt{%s}",
			c.SchedulersPerSM, c.ALULatency, c.SFULatency,
			c.GlobalMemBytes, c.GlobalLatency, c.GlobalMaxInflight, c.SharedLatency,
			c.L1SizeKB, c.L1Ways, c.L1HitLatency,
			c.RFCEntries, c.DrowsyAfter, c.MaxCycles, c.SMEpoch,
			c.Faults.String())
}

// The compression axis is signed through the CompressionScheme accessor,
// not the raw field, so the legacy empty spelling and "bdi" share one cache
// identity (they run the identical simulation). Its one c<value> token made
// the format cfg/v2, so keys persisted under cfg/v1 miss, never alias.

// SMParallel is deliberately absent: the epoch-barrier commit protocol makes
// results byte-identical at every shard count (the determinism oracle in
// internal/sim enforces it), so including it would only fragment the cache.

// sig is the engine-internal shorthand for ConfigSignature.
func sig(c *sim.Config) string { return ConfigSignature(c) }

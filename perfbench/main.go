// Command perfbench is the repository's end-to-end benchmark: one program
// that runs a named workload against the simulator or the warpedd serving
// stack for a fixed time, checks every output, and prints its metrics by
// name and unit, the last line being one JSON object. See README.md for
// the workloads, the metrics and which per-layer metric moves which
// end-to-end one.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload sim-sparse --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(seed int64, seconds float64, traced bool, workdir string, out *outcome) error{
	"sim-sparse": func(seed int64, seconds float64, traced bool, workdir string, out *outcome) error {
		return runSim(sparseParams, false, seed, seconds, traced, workdir, out)
	},
	"sweep-dense": func(seed int64, seconds float64, traced bool, workdir string, out *outcome) error {
		return runSim(denseParams, true, seed, seconds, traced, workdir, out)
	},
	"serve-campaign": func(seed int64, seconds float64, traced bool, workdir string, out *outcome) error {
		return runServe(serveParams, seed, seconds, traced, workdir, out)
	},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured time in seconds")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = end-to-end metrics")
	workdir := fs.String("workdir", ".bench_build/perfbench", "scratch directory for stores and profiles; emptied per run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown -workload %q (have %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(*workdir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dir, err = filepath.Abs(dir)
	if err != nil {
		return err
	}

	// Flush what earlier runs left to write back (serve-campaign writes
	// thousands of store files), so it does not land in this run's set-up.
	syscall.Sync()

	out := newOutcome()
	if err := fn(*seed, *seconds, *traceFlag == 1, dir, out); err != nil {
		return err
	}
	if err := out.print(os.Stdout, *workload, *traceFlag == 1); err != nil {
		return err
	}
	if out.failed > 0 {
		return fmt.Errorf("%d of %d operations failed", out.failed, out.attempted)
	}
	return nil
}

func workloadNames() []string { return []string{"sim-sparse", "sweep-dense", "serve-campaign"} }

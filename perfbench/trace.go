package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// tracer records spans around the benchmark's calls into the program's
// packages. A nil tracer records nothing, so the untraced run pays one nil
// check per call. Spans stay in memory until the run ends.
type tracer struct {
	spans []span
}

type span struct {
	name string
	dur  time.Duration
}

// do runs fn inside a span named name.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.spans = append(t.spans, span{name, time.Since(start)})
	return err
}

// total sums the durations of the spans named name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur
		}
	}
	return d
}

// profiler holds a running CPU profile.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profiler, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends the profile, folds it with the installed `go tool pprof` and
// stores the layer shares into m as cpu.<layer>_pct.
func (p *profiler) stop(m map[string]float64) error {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return err
	}
	var out bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-filefunctions", "-trim=false", "-unit=ms", p.path)
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	shares, err := foldTop(&out)
	if err != nil {
		return err
	}
	for layer, pct := range shares {
		m["cpu."+layer+"_pct"] = pct
	}
	return nil
}

// cpuLayers are the buckets of foldTop, in the order classify tries them.
var cpuLayers = []string{
	"sim.issue", "sim.pipeline", "sim.exec", "sim.replay", "sim.shard", "sim.other",
	"sched", "core", "regfile", "mem.pipe", "mem.shared", "mem.other", "energy",
	"exectrace", "jobs", "server", "store", "cluster", "net", "json", "runtime", "other",
}

// topRow matches one row of `pprof -top -filefunctions -unit=ms`: flat,
// flat%, sum%, cum, cum%, then the function and its file.
var topRow = regexp.MustCompile(`^\s*([0-9.]+)ms\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+ms\s+[0-9.]+%\s+(\S+)\s*(\S*)`)

// foldTop sums the flat (self) time of every function in a pprof -top
// listing into cpuLayers buckets and returns each bucket's share in
// percent. The shares sum to 100 (0 everywhere for an empty profile).
func foldTop(r *bytes.Buffer) (map[string]float64, error) {
	sums := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ms, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		sums[classify(m[2], m[3])] += ms
		total += ms
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
		if total > 0 {
			shares[l] = 100 * sums[l] / total
		}
	}
	return shares, nil
}

// issueFunc names the sim scheduler-issue scan: the per-cycle polling the
// event-driven loop targets.
var issueFunc = regexp.MustCompile(`\.\(\*SM\)\.(issueAll|canIssue|issue|issueDummyMov|nextInstr)$`)

// classify maps one profiled function (and its source file) to a layer.
func classify(fn, file string) string {
	base := filepath.Base(file)
	switch pkg := pkgOf(fn); pkg {
	case "repro/internal/sim":
		switch {
		case issueFunc.MatchString(fn):
			return "sim.issue"
		case base == "pipeline.go":
			return "sim.pipeline"
		case base == "exec.go":
			return "sim.exec"
		case base == "replay.go":
			return "sim.replay"
		case base == "shard.go":
			return "sim.shard"
		}
		return "sim.other"
	case "repro/internal/mem":
		switch {
		case strings.Contains(fn, ".(*Pipe)."):
			return "mem.pipe"
		case base == "shared.go":
			return "mem.shared"
		}
		return "mem.other"
	case "repro/internal/sched", "repro/internal/core", "repro/internal/regfile",
		"repro/internal/energy", "repro/internal/exectrace", "repro/internal/jobs",
		"repro/internal/server", "repro/internal/store", "repro/internal/cluster":
		return strings.TrimPrefix(pkg, "repro/internal/")
	case "encoding/json":
		return "json"
	}
	switch pkg := pkgOf(fn); {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "internal/poll":
		return "net"
	}
	return "other"
}

// pkgOf extracts the import path from a symbol such as
// "repro/internal/sim.(*SM).issueAll" or "runtime.mallocgc".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

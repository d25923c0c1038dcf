package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"time"
)

// Host time on a shared virtual machine.
//
// A virtual machine's hypervisor takes its vCPUs away now and then to run
// other guests; Linux counts that time per CPU as steal (/proc/stat). On
// the 2-vCPU machines this benchmark was tuned on, steal took 10-40% of
// the wall clock for minutes at a time, and since the simulator's SM
// shards meet at a spin barrier every epoch, a stall on either vCPU
// stalls the simulation: wall-clock throughput dropped by up to half
// while the program stayed the same.
//
// So every host time the end-to-end metrics use is held time: the wall
// time during which the guest held its CPUs, estimated as
//
//	wall × Π over CPUs (1 − steal_i / wall),
//
// the expected time with every vCPU running if each loses time
// independently. A vCPU with nothing to run accrues no steal, so a
// single-threaded interval is corrected by its own CPU's steal only.
// Without steal accounting, held time is wall time. The counters are read
// outside the timed interval.

// userHZ is the unit of the /proc/stat counters (sysconf(_SC_CLK_TCK),
// 100 on every Linux architecture Go supports).
const userHZ = 100

// stamp is a point in host time: the wall clock and each CPU's steal.
type stamp struct {
	wall  time.Time
	steal []float64 // seconds, by CPU
}

func hostNow() stamp {
	steal := readSteal()
	return stamp{wall: time.Now(), steal: steal}
}

// since returns the wall time from s to now and the held part of it.
func (s stamp) since() (wall, held time.Duration) {
	wall = time.Since(s.wall)
	return wall, heldTime(wall, s.steal, readSteal())
}

// setupTimer times repeated set-ups. One set-up is too short for the steal
// counters' 10 ms resolution, so the median wall time is scaled by the
// held share of the set-ups' own intervals together. (Not of the whole
// block: the collections between set-ups keep both vCPUs busy and draw
// steal that a single-threaded set-up does not.)
type setupTimer struct {
	walls []float64     // seconds, by set-up
	wall  time.Duration // summed over set-ups
	steal []float64     // summed over set-ups, by CPU
}

// time runs fn, from a collected heap, as one set-up.
func (t *setupTimer) time(fn func() error) error {
	runtime.GC()
	start := hostNow()
	err := fn()
	wall := time.Since(start.wall)
	end := readSteal()
	t.walls = append(t.walls, wall.Seconds())
	t.wall += wall
	if len(start.steal) == len(end) {
		if t.steal == nil {
			t.steal = make([]float64, len(end))
		}
		for i := range end {
			t.steal[i] += end[i] - start.steal[i]
		}
	}
	return err
}

// median returns the median set-up time in held seconds.
func (t *setupTimer) median() float64 {
	held := heldTime(t.wall, make([]float64, len(t.steal)), t.steal)
	return median(t.walls) * held.Seconds() / t.wall.Seconds()
}

// heldTime applies the estimate above to wall time over which the CPUs'
// steal counters moved from before to after.
func heldTime(wall time.Duration, before, after []float64) time.Duration {
	if wall <= 0 || len(before) != len(after) {
		return wall
	}
	share := 1.0
	for i := range before {
		p := (after[i] - before[i]) / wall.Seconds()
		share *= 1 - min(max(p, 0), 1)
	}
	return time.Duration(share * float64(wall))
}

// readSteal returns each CPU's steal seconds from /proc/stat, or nil when
// the file or its steal column is missing.
func readSteal() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	var out []float64
	for _, line := range bytes.Split(data, []byte("\n")) {
		f := bytes.Fields(line)
		// cpuN user nice system idle iowait irq softirq steal ...
		if len(f) < 9 || !bytes.HasPrefix(f[0], []byte("cpu")) || len(f[0]) == 3 {
			continue
		}
		v, err := strconv.ParseFloat(string(f[8]), 64)
		if err != nil {
			return nil
		}
		out = append(out, v/userHZ)
	}
	return out
}

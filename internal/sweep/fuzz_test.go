package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fuzzMaxGridPoints bounds the grid cross product a fuzz input may ask
// for. Expansion materializes every point, and a few hundred bytes of
// valid axes can name millions of them.
const fuzzMaxGridPoints = 1 << 10

// FuzzSpecParse drives the campaign-spec front door (Parse, then Jobs)
// with arbitrary documents. Specs arrive from warpedctl users, so every
// input must either be rejected with a *SpecError or a JSON decode error,
// or expand to a job list whose every configuration passes Validate and
// which a second expansion reproduces exactly.
func FuzzSpecParse(f *testing.F) {
	paths, err := filepath.Glob("../../examples/sweeps/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name": "x", "benchmarks": ["bfs"], "base": {"Mode": 0}}`))
	f.Add([]byte(`{"name": "x", "benchmarks": ["bfs"], "preset": "baseline", "grid": {"Compression": ["off", "bdi40"], "RFCEntries": [0, 4]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var probe struct {
			Grid map[string][]json.RawMessage `json:"grid"`
		}
		_ = json.NewDecoder(bytes.NewReader(data)).Decode(&probe)
		points := 1
		for _, vals := range probe.Grid {
			if len(vals) > 0 {
				points *= len(vals)
			}
			if points > fuzzMaxGridPoints {
				return
			}
		}

		s, err := Parse(data)
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) && !strings.HasPrefix(err.Error(), "sweep: bad spec: ") {
				t.Fatalf("Parse error %q (%T) is neither a *SpecError nor a decode error", err, err)
			}
			return
		}
		jobs, err := s.Jobs()
		if err != nil {
			t.Fatalf("Parse accepted a spec whose Jobs fails: %v", err)
		}
		for _, j := range jobs {
			if err := j.Config.Validate(); err != nil {
				t.Fatalf("job %s/%s has an invalid config: %v", j.Name, j.Benchmark, err)
			}
		}
		again, err := s.Jobs()
		if err != nil || !reflect.DeepEqual(again, jobs) {
			t.Fatalf("second expansion differs (err %v)", err)
		}
	})
}

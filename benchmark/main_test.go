package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload,
		seed:     7,
		seconds:  2 * time.Second,
		trace:    trace,
		dir:      t.TempDir(),
		commit:   "test",
		sizes:    tinySizes,
		report:   io.Discard,
	}
}

// runChecked runs one tiny workload and fails the test if the run leaks a
// goroutine, a stack directory or a spill file.
func runChecked(t *testing.T, cfg config) *result {
	t.Helper()
	before := runtime.NumGoroutine()
	res, err := run(cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.workload, cfg.trace, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines before the run, %d after:\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(cfg.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "trace-") {
			t.Errorf("run left %s behind in its work directory", e.Name())
		}
	}
	return res
}

func TestEveryMetricEmittedWithItsUnit(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w.Name, trace)
			res := runChecked(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := map[string]string{}
			if trace {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				} else if got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: unlisted metric %s", w.Name, trace, name)
				}
			}
			if !trace {
				for name, m := range res.Metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, name, m.Value)
					}
				}
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
			}
		}
	}
}

func TestGateTripsOnCorruptedReference(t *testing.T) {
	for _, w := range []string{wlProvAnalytic, wlPointRW, wlProvUnderWrites} {
		cfg := tinyConfig(t, w, false)
		cfg.corrupt = true
		res := runChecked(t, cfg)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted reference passed the gate (correct=%v failed=%d)", w, res.Correct, res.Failed)
		}
	}
}

func TestInputsArePureFunctionOfSeed(t *testing.T) {
	keys := writeKeys(3, 1000)
	if rwInputHash(3, 400) != rwInputHash(3, 400) || keys(17) != writeKeys(3, 1000)(17) {
		t.Fatal("same seed, different inputs")
	}
	if rwInputHash(3, 400) == rwInputHash(4, 400) {
		t.Fatal("different seeds, same point_rw inputs")
	}
}

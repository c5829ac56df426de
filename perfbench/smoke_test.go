package main

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// serveBin is the smore-serve binary the smoke tests boot, built once.
var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	serveBin = filepath.Join(dir, "smore-serve")
	out, err := exec.Command("go", "build", "-o", serveBin, "go-arxiv/smore/cmd/smore-serve").CombinedOutput()
	if err != nil {
		os.RemoveAll(dir)
		panic("building smore-serve: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smoke(t *testing.T, workload string, trace, sabotage bool) *result {
	t.Helper()
	opt := options{workload: workload, seed: 7, seconds: 1, trace: trace, serveBin: serveBin, work: t.TempDir(), sabotage: sabotage}
	res, err := run(opt, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmoke runs every workload for a second, untraced and traced: each
// must pass its correctness checks and report exactly the metrics
// BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, tc := range []struct {
				trace bool
				want  []specMetric
			}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
				res := smoke(t, w.name, tc.trace, false)
				if !res.Correct || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failures=%q", tc.trace, res.Correct, res.Attempted, res.failures)
				}
				if len(res.Metrics) != len(tc.want) {
					t.Errorf("trace=%v: %d metrics, BENCHMARK.json declares %d", tc.trace, len(res.Metrics), len(tc.want))
				}
				for _, m := range tc.want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace=%v: metric %s = %+v, want unit %q", tc.trace, m.Name, got, m.Unit)
					}
				}
			}
		})
	}
}

// TestSmokeOracleFailsRun corrupts each workload's reference — one expected
// prediction on the frozen workloads, the stream books on stream-mixed —
// and checks that the run is reported incorrect.
func TestSmokeOracleFailsRun(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := smoke(t, w.name, false, true)
			want := "disagree with the reference"
			if w.streamed {
				want = "stream books"
			}
			if res.Correct || !strings.Contains(strings.Join(res.failures, "\n"), want) {
				t.Errorf("correct=%v failures=%q, want a failure mentioning %q", res.Correct, res.failures, want)
			}
		})
	}
}

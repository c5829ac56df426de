package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so tail must sort
	}
	return xs
}

func TestTailReportsHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantVal float64
	}{
		{n: 10000, wantPct: 99.9, wantVal: 9990}, // 10 samples beyond p99.9
		{n: 9999, wantPct: 99, wantVal: 9900},    // 9 beyond p99.9: falls back
		{n: 1000, wantPct: 99, wantVal: 990},
		{n: 999, wantPct: 95, wantVal: 950}, // 9 beyond p99
		{n: 200, wantPct: 95, wantVal: 190},
		{n: 100, wantPct: 90, wantVal: 90},
		{n: 40, wantPct: 75, wantVal: 30},
		{n: 20, wantPct: 50, wantVal: 10},
		{n: 5, wantPct: 50, wantVal: 3}, // too few for any tail: the median, flagged by N
	} {
		q := tail(seq(tc.n), 99.9)
		if q.Pct != tc.wantPct || q.Value != tc.wantVal || q.N != tc.n {
			t.Errorf("n=%d: got p%g=%g (N=%d), want p%g=%g", tc.n, q.Pct, q.Value, q.N, tc.wantPct, tc.wantVal)
		}
		if q.Pct > 50 && beyond(tc.n, q.Pct) < minBeyond {
			t.Errorf("n=%d: p%g has only %d samples beyond it", tc.n, q.Pct, beyond(tc.n, q.Pct))
		}
	}
	if q := tail(seq(10000), 99); q.Pct != 99 {
		t.Errorf("tail never reports above the asked percentile: got p%g", q.Pct)
	}
	if q := median(seq(7)); q.Value != 4 || q.N != 7 {
		t.Errorf("median of 1..7 = %g (N=%d), want 4", q.Value, q.N)
	}
}

func TestGrowingBacklog(t *testing.T) {
	flat := []int{3, 5, 2, 4, 6, 3, 2, 5, 4, 3, 6, 2}
	if growingBacklog(flat, 2) {
		t.Error("a jittery but flat backlog read as growing")
	}
	var ramp []int
	for i := range 12 {
		ramp = append(ramp, 2+3*i)
	}
	if !growingBacklog(ramp, 2) {
		t.Error("a backlog growing by 3 per sample read as flat")
	}
	if growingBacklog(ramp, 100) {
		t.Error("growth within the slack read as growing")
	}
	if growingBacklog([]int{0, 50}, 1) {
		t.Error("two samples are not a trend")
	}
}

func TestMaxRPSLadder(t *testing.T) {
	ok := func(rate float64) rung {
		return rung{Rate: rate, Served: rate - 1, Tail: quantile{Pct: 99, Value: 5}, LimitMS: 10, Attempted: 100}
	}
	slow := func(rate float64) rung { r := ok(rate); r.Tail.Value = 11; return r }
	backlog := func(rate float64) rung { r := ok(rate); r.Backlog = true; return r }
	failed := func(rate float64) rung { r := ok(rate); r.Failed = 2; r.Tail.Value = failLatencyMS; return r }

	for _, tc := range []struct {
		name  string
		rungs []rung
		best  float64
		idx   int
		done  bool
	}{
		{"all pass", []rung{ok(10), ok(20), ok(30)}, 29, 2, false},
		{"p99 over the limit", []rung{ok(10), ok(20), slow(30), slow(40)}, 19, 1, true},
		{"growing backlog", []rung{ok(10), backlog(20), backlog(30)}, 9, 0, true},
		{"failed requests miss the limit", []rung{ok(10), failed(20), failed(30)}, 9, 0, true},
		{"one transient miss does not end the climb", []rung{ok(10), slow(20), ok(30)}, 29, 2, false},
		{"first step fails", []rung{slow(10), slow(20)}, 0, -1, true},
	} {
		best, idx := maxRPS(tc.rungs)
		if best != tc.best || idx != tc.idx {
			t.Errorf("%s: maxRPS = %g at %d, want %g at %d", tc.name, best, idx, tc.best, tc.idx)
		}
		if got := climbDone(tc.rungs); got != tc.done {
			t.Errorf("%s: climbDone = %v, want %v", tc.name, got, tc.done)
		}
	}
}

func TestJudgeRung(t *testing.T) {
	res := phaseResult{rate: 100, out: make([]outcome, 200), backlog: make([]int, 30)}
	res.end = res.start.Add(2e9)
	for i := range res.out {
		res.out[i] = outcome{kind: opPredict, latMS: 1}
	}
	if r := judgeRung(res, 10, 2); !r.passed() || r.Served != 100 {
		t.Errorf("a healthy step: %+v", r)
	}
	// 200 samples support p95 (10 beyond it): 11 failures push it past the
	// limit, 10 do not.
	for i := range 10 {
		res.out[i] = outcome{kind: opPredict, latMS: failLatencyMS, failed: true}
	}
	if r := judgeRung(res, 10, 2); !r.passed() || r.Tail.Pct != 95 {
		t.Errorf("10 failures in 200 requests stay beyond p95: %+v", r)
	}
	res.out[10] = res.out[0]
	if r := judgeRung(res, 10, 2); r.passed() || r.Failed != 11 {
		t.Errorf("11 failures in 200 requests must push p95 past the limit: %+v", r)
	}
	for i := range 11 {
		res.out[i] = res.out[11]
	}
	for i := range res.backlog {
		res.backlog[i] = i * 2
	}
	if r := judgeRung(res, 10, 2); r.passed() || !r.Backlog {
		t.Errorf("a backlog growing by 2 per sample must fail the step: %+v", r)
	}
}

func TestFoldLags(t *testing.T) {
	base := time.Unix(1000, 0)
	acks := []ack{{at: base.Add(10e6), bound: 8}, {at: base.Add(20e6), bound: 24}}
	polls := []poll{
		{at: base.Add(15e6), folded: 8},
		{at: base.Add(25e6), folded: 16},
		{at: base.Add(45e6), folded: 24},
	}
	lags := foldLags(acks, polls, 0, 24)
	if len(lags) != 2 || lags[0] != 5 || lags[1] != 25 {
		t.Errorf("fold lags = %v, want [5 25]", lags)
	}
	// A bound past the final acknowledged total (a concurrent enqueue that
	// was refused) is capped, so the lag still resolves.
	lags = foldLags([]ack{{at: base.Add(20e6), bound: 40}}, polls, 0, 24)
	if len(lags) != 1 || lags[0] != 25 {
		t.Errorf("capped fold lag = %v, want [25]", lags)
	}
}

func TestMetricNames(t *testing.T) {
	for _, bad := range [][]string{
		{"_leading"}, {"has space"}, {"a/b"}, {""}, {strings.Repeat("x", 65)}, {"dup", "dup"},
	} {
		if checkMetricNames(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	if err := checkMetricNames([]string{"setup_s", "serve.decode_us", "serve.decode.ops", "predict-single", "9x"}); err != nil {
		t.Error(err)
	}
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		names = append(names, m.Name)
	}
	if err := checkMetricNames(names); err != nil {
		t.Errorf("BENCHMARK.json: %v", err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}

// metricName is the pattern every reported metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricNames rejects a name that does not match metricName or is
// used twice.
func checkMetricNames(names []string) error {
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) {
			return fmt.Errorf("invalid metric name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("duplicate metric name %q", n)
		}
		seen[n] = true
	}
	return nil
}

// spec is the part of BENCHMARK.json the tests check against the code.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

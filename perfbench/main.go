// Command perfbench is the serving benchmark: it trains the default SMORE
// model on a seeded synthetic dataset, boots the real smore-serve binary on
// it as a separate process, and drives it with an open-loop request
// generator (see README.md for the workloads and metrics).
//
//	perfbench --serve-bin smore-serve --workload predict-single --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// repeats the measured phase for the server's own stage counters, then
// replays the same inputs in-process through each layer's public functions
// with spans around every call, and reports the per-layer metrics. The last
// line of standard output is one JSON object; the exit code is non-zero
// when any correctness check fails. run.sh builds both binaries and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	serveBin string
	work     string // scratch root for bundles, state dirs, logs and spans
	// sabotage corrupts the run's reference on purpose (a wrong expected
	// prediction, or an off-by-one in the stream books), so tests can check
	// that the oracle fails the run.
	sabotage bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var opt options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "workload name (predict-single, predict-batch, stream-mixed), or all")
	fs.Uint64Var(&opt.seed, "seed", 1, "seed of the dataset, the request bodies and the mix")
	fs.Float64Var(&opt.seconds, "seconds", 30, "length of the load schedule in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&opt.serveBin, "serve-bin", "", "path of the smore-serve binary")
	fs.StringVar(&opt.work, "work", "", "scratch directory")
	if err := fs.Parse(args); err != nil {
		return opt, err
	}
	switch {
	case opt.serveBin == "" || opt.work == "":
		return opt, errors.New("--serve-bin and --work are required")
	case opt.seconds <= 0:
		return opt, fmt.Errorf("--seconds %v must be positive", opt.seconds)
	case trace != 0 && trace != 1:
		return opt, fmt.Errorf("--trace %d must be 0 or 1", trace)
	}
	opt.trace = trace == 1
	if opt.workload == "all" {
		return opt, nil
	}
	_, err := findWorkload(opt.workload)
	return opt, err
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	opt, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	var res *result
	if opt.workload == "all" {
		res, err = runAll(opt, stdout)
	} else {
		res, err = run(opt, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in turn. The last line then holds every
// workload's metrics, named <workload>.<metric>, and is correct only when
// every run was.
func runAll(opt options, out io.Writer) (*result, error) {
	all := &result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		o := opt
		o.workload = w.name
		res, err := run(o, out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w.name+"."+name] = m
		}
	}
	return all, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	failures []string
}

func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// report collects metrics for the JSON line and prints each, with its unit
// and a note, for a reader of the log.
type report struct {
	w       io.Writer
	metrics map[string]metric
}

func (r *report) add(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.line(name, v, unit, note)
}

// info prints a metric that is not part of the JSON line: one that is not
// defined on every workload, or a companion of a JSON metric.
func (r *report) info(name string, v float64, unit, note string) { r.line(name, v, unit, note) }

func (r *report) line(name string, v float64, unit, note string) {
	if note != "" {
		note = "  # " + note
	}
	fmt.Fprintf(r.w, "  %-30s %14.4f %-6s%s\n", name, v, unit, note)
}

func (r *report) absent(name, why string) {
	fmt.Fprintf(r.w, "  %-30s %14s %-6s  # %s\n", name, "absent", "", why)
}

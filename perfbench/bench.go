package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"go-arxiv/smore/internal/pipeline"
)

// Shares of --seconds: an unmeasured warm-up at the nominal rate, the
// measured nominal phase, then the max_rps ladder (trace 0 only).
const (
	warmupShare  = 0.075
	nominalShare = 0.575
	ladderShare  = 0.35
	setupReps    = 25 // set-ups per run: setup_s is their median, accuracy their mean
	lagPollEvery = 10 * time.Millisecond
	drainLimit   = 60 * time.Second
	// stealWarnPct is the hypervisor steal, in percent of CPU time, past
	// which a run's timings are flagged as disturbed.
	stealWarnPct = 2.0
)

// bench is one run of one workload.
type bench struct {
	opt  options
	w    workload
	in   *inputs
	dir  string // this run's scratch directory
	out  io.Writer
	res  *result
	rep  *report
	srv  *server
	drv  *driver
	conn int

	bundlePath string
	stateDir   string
	trainSecs  float64 // pipeline.Train alone, from the last set-up
	sent       int     // requests offered so far (offsets the schedule)

	// From stream-mixed's server under load, for the traced replay.
	foldBatch                   int // mean windows per coalesced fold
	acceptPseudo, acceptSkipped int // pseudo-labels accepted and skipped
}

func run(opt options, out io.Writer) (*result, error) {
	w, err := findWorkload(opt.workload)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(opt.work, fmt.Sprintf("run-%s-%d-%d", w.name, opt.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	in, err := buildInputs(w, opt.seed)
	if err != nil {
		return nil, err
	}
	b := &bench{
		opt: opt, w: w, in: in, dir: dir, out: out,
		res:  &result{Correct: true, Metrics: map[string]metric{}},
		conn: runtime.NumCPU(),
	}
	b.rep = &report{w: out, metrics: b.res.Metrics}
	mode := "end-to-end (trace 0)"
	if opt.trace {
		mode = "per-layer (trace 1)"
	}
	fmt.Fprintf(out, "perfbench %s seed=%d seconds=%g %s; %d connections, GOMAXPROCS=%d, %s\n",
		w.name, opt.seed, opt.seconds, mode, b.conn, runtime.GOMAXPROCS(0), runtime.Version())
	defer func() {
		if b.srv != nil {
			b.srv.stop()
		}
	}()
	if err := b.measure(); err != nil {
		return nil, err
	}
	for _, f := range b.res.failures {
		fmt.Fprintf(out, "CHECK FAILED: %s\n", f)
	}
	return b.res, nil
}

func (b *bench) measure() error {
	reps := setupReps
	if b.opt.trace {
		reps = 1
	}
	setups, accs, err := b.setup(reps)
	if err != nil {
		return err
	}
	var lag *poller
	if b.w.streamed {
		lag = b.drv.startPoller(lagPollEvery)
	}

	b.phase(b.w.nominal, warmupShare*b.opt.seconds) // warm-up, judged but not reported
	stages0, err := scrapeStages(b.drv.client, b.srv.base)
	if err != nil {
		return err
	}
	stream0, err := getStreamStats(b.drv.client, b.srv.base)
	if err != nil {
		return err
	}
	cpu0, err := b.srv.cpuSeconds()
	if err != nil {
		return err
	}
	host0, steal0, err := hostCPU()
	if err != nil {
		return err
	}
	nom := b.phase(b.w.nominal, nominalShare*b.opt.seconds)
	cpu1, err := b.srv.cpuSeconds()
	if err != nil {
		return err
	}
	host1, steal1, err := hostCPU()
	if err != nil {
		return err
	}
	// A busy host slows every timing metric; say how busy it was.
	steal := 100 * (steal1 - steal0) / max(host1-host0, 1)
	fmt.Fprintf(b.out, "host: %.1f%% of CPU time stolen by the hypervisor during the nominal phase\n", steal)
	if steal > stealWarnPct {
		fmt.Fprintf(b.out, "host: WARNING: over %g%% stolen; this run's timings say more about the host than the program\n", stealWarnPct)
	}
	stages1, err := scrapeStages(b.drv.client, b.srv.base)
	if err != nil {
		return err
	}
	stream1, err := getStreamStats(b.drv.client, b.srv.base)
	if err != nil {
		return err
	}
	nomEnd := time.Now()

	var rungs []rung
	if !b.opt.trace {
		rungs = b.ladder()
	}

	var polls []poll
	if b.w.streamed {
		final, err := waitDrained(b.drv.client, b.srv.base, drainLimit)
		polls = lag.finish()
		if err != nil {
			b.res.fail("%v", err)
		}
		b.checkBooks(final)
	}
	rss, err := b.srv.rssPeakMB()
	if err != nil {
		return err
	}
	var served []byte
	if b.opt.trace {
		if served, err = b.export(); err != nil {
			return err
		}
	}
	if err := b.srv.stop(); err != nil {
		b.res.fail("smore-serve did not shut down cleanly: %v: %s", err, b.srv.logTail())
	}

	b.res.Attempted = int64(len(nom.out))
	for _, o := range nom.out {
		if o.failed {
			b.res.Failed++
		}
	}
	if b.opt.trace {
		fmt.Fprintln(b.out, "per-layer metrics (server counters under the nominal load, then an in-process traced replay):")
		b.driverMetrics(nom)
		b.serverLayerMetrics(stages0, stages1, stream0, stream1, nom, polls, nomEnd)
		return b.replay(served)
	}
	fmt.Fprintln(b.out, "end-to-end metrics:")
	b.endToEnd(setups, accs, nom, rungs, cpu1-cpu0, rss, polls, nomEnd)
	return nil
}

// setup trains a model, saves its bundle and boots smore-serve on it until
// /healthz answers, reps times, each on its own seed (modelSeed); then each
// server answers the accuracy probe. The last set-up is the run's own seed,
// and its server, driver and reference stay for the load phases.
func (b *bench) setup(reps int) (times, accs []float64, err error) {
	for i := reps - 1; i >= 0; i-- {
		if b.srv != nil {
			if err := b.srv.stop(); err != nil {
				return nil, nil, fmt.Errorf("stopping set-up server: %v", err)
			}
			b.drv.close()
			b.srv, b.drv = nil, nil
		}
		seed := modelSeed(b.opt.seed, i)
		pb, err := buildProbe(b.w, seed)
		if err != nil {
			return nil, nil, err
		}
		b.bundlePath = filepath.Join(b.dir, fmt.Sprintf("model-%d.smore", i))
		var extra []string
		if b.w.streamed {
			b.stateDir = filepath.Join(b.dir, fmt.Sprintf("state-%d", i))
			extra = []string{"-state-dir", b.stateDir, "-checkpoint-folds", fmt.Sprint(foldEvery), "-checkpoint-interval", "0"}
		}
		t0 := time.Now()
		art, err := pipeline.Train(pipelineConfig(seed))
		if err != nil {
			return nil, nil, err
		}
		b.trainSecs = time.Since(t0).Seconds()
		if b.w.adapted {
			if _, err := art.Evaluate(); err != nil {
				return nil, nil, err
			}
		}
		if err := art.Bundle().SaveFile(b.bundlePath); err != nil {
			return nil, nil, err
		}
		srv, err := startServer(b.opt.serveBin, b.bundlePath, filepath.Join(b.dir, fmt.Sprintf("serve-%d.log", i)), extra)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		b.srv, b.drv = srv, newDriver(srv.base, b.conn, seed)

		if b.w.adapted {
			ref, err := pipeline.LoadBundleFile(b.bundlePath)
			if err != nil {
				return nil, nil, err
			}
			refs := pb.predicts
			if i == 0 {
				refs = append(refs, b.in.predicts...)
			}
			if err := setReference(ref, refs); err != nil {
				return nil, nil, err
			}
			if b.opt.sabotage && i == 0 {
				o := b.in.predicts[0]
				o.want[0] = (o.want[0] + 1) % ref.Model.Config().Classes
			}
		}
		acc, err := b.probe(pb)
		if err != nil {
			return nil, nil, err
		}
		accs = append(accs, acc)
	}
	return times, accs, nil
}

// probe adapts the fresh server on the probe's stream windows (stream-mixed
// only), then returns the share of the probe's labelled windows it predicts
// right. Responses are judged like any other.
func (b *bench) probe(pb *probe) (float64, error) {
	for _, o := range pb.streams {
		if out := b.drv.do(o, time.Now()); out.failed {
			b.res.fail("accuracy probe: stream enqueue refused or failed")
		}
	}
	if len(pb.streams) > 0 {
		if _, err := waitDrained(b.drv.client, b.srv.base, drainLimit); err != nil {
			return 0, err
		}
	}
	hits, preds := 0, 0
	for _, o := range pb.predicts {
		out := b.drv.do(o, time.Now())
		if out.wrong {
			b.res.fail("accuracy probe: a response disagrees with the reference")
		} else if out.failed {
			b.res.fail("accuracy probe: predict failed")
		}
		hits, preds = hits+out.hits, preds+out.preds
	}
	return float64(hits) / float64(max(preds, 1)), nil
}

// phase runs secs of open-loop load at rate and judges every response.
func (b *bench) phase(rate, secs float64) phaseResult {
	n := max(1, int(rate*secs))
	res := b.drv.run(rate, n, b.in.pick(b.sent))
	b.sent += n
	wrong := 0
	for _, o := range res.out {
		if o.wrong {
			wrong++
		}
	}
	if wrong > 0 {
		b.res.fail("%d of %d responses at %.0f req/s disagree with the reference", wrong, n, rate)
	}
	return res
}

// ladder climbs the workload's rates until two steps in a row miss the p99
// limit or build a backlog, so one transient stall does not end the climb;
// each step gets an equal share of the ladder time.
func (b *bench) ladder() []rung {
	secs := ladderShare * b.opt.seconds / float64(len(b.w.ladder))
	var rungs []rung
	for _, rate := range b.w.ladder {
		res := b.phase(rate, secs)
		rungs = append(rungs, judgeRung(res, b.w.p99LimitMS, b.conn))
		if climbDone(rungs) {
			break
		}
	}
	return rungs
}

// judgeRung summarises one ladder step. A request served within the limit
// counts towards the served rate; a failed one counts as missing the limit.
func judgeRung(res phaseResult, limitMS float64, conns int) rung {
	r := rung{Rate: res.rate, LimitMS: limitMS, Attempted: len(res.out)}
	lats := make([]float64, 0, len(res.out))
	ok := 0
	for _, o := range res.out {
		lats = append(lats, o.latMS)
		if o.failed {
			r.Failed++
		} else if o.latMS <= limitMS {
			ok++
		}
	}
	r.Tail = tail(lats, 99)
	r.Served = float64(ok) / res.end.Sub(res.start).Seconds()
	// Slack: the connection count plus 10% of the step's requests, so that
	// arrivals bunching by chance at a sustainable rate are not read as a
	// trend. A step passes up to roughly 15% past capacity; its served rate
	// is then the capacity itself.
	r.Backlog = growingBacklog(res.backlog, float64(conns)+0.1*float64(len(res.out)))
	return r
}

// checkBooks reconciles the stream queue after the drain.
func (b *bench) checkBooks(st streamStats) {
	acked := b.drv.acked.Load()
	if b.opt.sabotage {
		acked++
	}
	if st.Enqueued != acked {
		b.res.fail("stream books: driver got 202 for %d windows, server enqueued_total is %d", acked, st.Enqueued)
	}
	if sum := st.WindowsFolded + st.WindowsLost + int64(st.QueueDepth+st.InFlight); st.Enqueued != sum {
		b.res.fail("stream books: enqueued %d != folded %d + lost %d + depth %d + in flight %d",
			st.Enqueued, st.WindowsFolded, st.WindowsLost, st.QueueDepth, st.InFlight)
	}
	if st.WindowsLost != 0 {
		b.res.fail("stream books: %d accepted windows lost", st.WindowsLost)
	}
	if err := checkpointMatchesExport(b.drv.client, b.srv.base, b.stateDir); err != nil {
		b.res.fail("checkpoint: %v", err)
	}
}

// export fetches the served bundle (the adapted one, on stream-mixed).
func (b *bench) export() ([]byte, error) {
	resp, err := b.drv.client.Get(b.srv.base + "/v1/model")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET /v1/model: %s", resp.Status)
	}
	return io.ReadAll(resp.Body)
}

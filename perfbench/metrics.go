package main

import (
	"fmt"
	"time"
)

func mean(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(max(len(xs), 1))
}

// formatAccs lists per-model accuracies in ascending order, so a run's
// accuracy can be traced to the seeds whose model lost a class.
func formatAccs(accs []float64) string {
	s := ""
	for i, a := range sortedCopy(accs) {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", a)
	}
	return s
}

func latencies(out []outcome, kind opKind) []float64 {
	var lats []float64
	for _, o := range out {
		if o.kind == kind {
			lats = append(lats, o.latMS)
		}
	}
	return lats
}

// pctNote says which percentile a tail value is and how many samples back
// it, and why when it is lower than asked.
func pctNote(q quantile, want float64) string {
	note := fmt.Sprintf("p%g of n=%d", q.Pct, q.N)
	if q.Pct < want {
		note += fmt.Sprintf(", too few samples for p%g", want)
	}
	return note
}

// endToEnd reports the user-visible metrics of an untraced run.
func (b *bench) endToEnd(setups, accs []float64, nom phaseResult, rungs []rung, cpuSecs, rss float64, polls []poll, nomEnd time.Time) {
	r := b.rep
	what := "train + save + boot to healthy"
	if b.w.adapted {
		what = "train + batch adapt + save + boot to healthy"
	}
	r.add("setup_s", median(setups).Value, "s", fmt.Sprintf("median of %d: %s", len(setups), what))
	lats := latencies(nom.out, opPredict)
	p50, p99 := median(lats), tail(lats, 99)
	r.add("predict_p50_ms", p50.Value, "ms", fmt.Sprintf("n=%d predicts at %g req/s, from when each was due", p50.N, b.w.nominal))
	r.info("predict_p99_ms", p99.Value, "ms", pctNote(p99, 99))
	if len(lats) > 0 {
		sorted := sortedCopy(lats)
		fmt.Fprintf(b.out, "  %-30s p90 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  max %.3f ms\n", "(predict latency)",
			nearestRank(sorted, 90), nearestRank(sorted, 95), nearestRank(sorted, 99), nearestRank(sorted, 99.9), sorted[len(sorted)-1])
	}
	best, idx := maxRPS(rungs)
	note := fmt.Sprintf("served rate at step %d of %d (%g req/s), p99 limit %g ms", idx+1, len(b.w.ladder), b.w.ladder[max(idx, 0)], b.w.p99LimitMS)
	if idx == len(b.w.ladder)-1 {
		note += "; TOP STEP PASSED, the ladder no longer brackets capacity"
	}
	r.info("max_rps", best, "1/s", note)
	var hits, preds, completed, failed int
	for _, o := range nom.out {
		hits, preds = hits+o.hits, preds+o.preds
		if o.failed {
			failed++
		} else {
			completed++
		}
	}
	how := "batch-adapted"
	if b.w.streamed {
		how = fmt.Sprintf("after %d windows through /v1/stream/adapt", probeWindows)
	}
	r.add("accuracy", mean(accs), "fraction", fmt.Sprintf("mean over %d set-up models (%s, own seeds) of the share of %d labelled target windows predicted right", len(accs), how, probeWindows))
	fmt.Fprintf(b.out, "  %-30s %s\n", "(accuracy per model)", formatAccs(accs))
	r.info("accuracy_live", float64(hits)/float64(max(preds, 1)), "fraction", fmt.Sprintf("served model under load: %d of %d predicted windows match their label", hits, preds))
	r.add("server_cpu_ms_per_req", cpuSecs*1000/float64(max(completed, 1)), "ms", fmt.Sprintf("on-CPU time over %d completed requests", completed))
	r.add("server_rss_peak_mb", rss, "MB", "VmHWM at the end of the run")
	r.info("failed_frac", float64(failed)/float64(len(nom.out)), "fraction", fmt.Sprintf("%d of %d requests failed, refused or wrong", failed, len(nom.out)))
	if b.w.streamed {
		ad := tail(latencies(nom.out, opAdapt), 99)
		r.info("adapt_p99_ms", ad.Value, "ms", pctNote(ad, 99))
		lags := b.nominalLags(nom, polls, nomEnd)
		lp50, lp99 := median(lags), tail(lags, 99)
		res := fmt.Sprintf("resolution %v (stats poll cadence)", lagPollEvery)
		r.info("fold_lag_p50_ms", lp50.Value, "ms", fmt.Sprintf("n=%d, %s", lp50.N, res))
		r.info("fold_lag_p99_ms", lp99.Value, "ms", pctNote(lp99, 99)+", "+res)
	} else {
		for _, n := range []string{"adapt_p99_ms", "fold_lag_p50_ms", "fold_lag_p99_ms"} {
			r.absent(n, "stream-mixed only: this workload never adapts")
		}
	}
	fmt.Fprintf(b.out, "max_rps ladder (p99 limit %g ms, backlog slack = connections + 10%% of a step):\n", b.w.p99LimitMS)
	for _, g := range rungs {
		verdict := "pass"
		if !g.passed() {
			verdict = "FAIL"
		}
		fmt.Fprintf(b.out, "  %7g req/s: served %8.1f/s, %s %8.2f ms, failed %d/%d, growing backlog %v: %s\n",
			g.Rate, g.Served, pctNote(g.Tail, 99), g.Tail.Value, g.Failed, g.Attempted, g.Backlog, verdict)
	}
}

// nominalLags is the fold lag of every window batch acknowledged during the
// nominal phase.
func (b *bench) nominalLags(nom phaseResult, polls []poll, nomEnd time.Time) []float64 {
	b.drv.ackMu.Lock()
	var acks []ack
	for _, a := range b.drv.acks {
		if !a.at.Before(nom.start) && !a.at.After(nomEnd) {
			acks = append(acks, a)
		}
	}
	b.drv.ackMu.Unlock()
	// The server is fresh, so its enqueue positions count from zero.
	return foldLags(acks, polls, 0, b.drv.acked.Load())
}

// driverMetrics reports the generator's own validity numbers.
func (b *bench) driverMetrics(nom phaseResult) {
	r := b.rep
	late := tail(nom.lateMS, 99)
	r.add("driver.late_p99_ms", late.Value, "ms", "how late the pacer released requests, "+pctNote(late, 99))
	completed := 0
	for _, o := range nom.out {
		if !o.failed {
			completed++
		}
	}
	r.add("driver.sent", float64(len(nom.out)), "count", fmt.Sprintf("nominal phase at %g req/s", b.w.nominal))
	r.add("driver.completed", float64(completed), "count", "answered successfully")
}

// serverLayerMetrics reports the busy time per operation of the server's
// stages (deltas of the /metrics stage counters over the nominal phase) and
// the stream queue's books.
func (b *bench) serverLayerMetrics(st0, st1 stageCounters, s0, s1 streamStats, nom phaseResult, polls []poll, nomEnd time.Time) {
	r := b.rep
	for _, stage := range []string{"decode", "encode", "infer"} {
		us, ops := st1.perOpUS(st0, stage)
		r.add("serve."+stage+"_us", us, "us", "busy time per op under load")
		r.add("serve."+stage+".ops", ops, "count", "")
	}
	if !b.w.streamed {
		for _, n := range []string{"serve.fold_us", "serve.stream_encode_us", "serve.checkpoint_us",
			"stream.batch_windows", "stream.queue_wait_ms", "stream.queue_depth_max", "stream.rejected"} {
			r.absent(n, "stream-mixed only: nothing is streamed, folded or checkpointed here")
		}
		return
	}
	busyMS := 0.0
	for _, stage := range []string{"fold", "stream_encode", "checkpoint"} {
		us, ops := st1.perOpUS(st0, stage)
		r.info("serve."+stage+"_us", us, "us", fmt.Sprintf("busy time per op, %g ops", ops))
		if stage != "checkpoint" {
			busyMS += us / 1000
		}
	}
	batches := float64(s1.BatchesFolded - s0.BatchesFolded)
	b.foldBatch = int(float64(s1.WindowsFolded-s0.WindowsFolded)/max(batches, 1) + 0.5)
	r.info("stream.batch_windows", float64(b.foldBatch), "count", fmt.Sprintf("mean windows per fold over %g folds", batches))
	lags := b.nominalLags(nom, polls, nomEnd)
	r.info("stream.queue_wait_ms", median(lags).Value-busyMS, "ms", "median fold lag minus mean stream-encode and fold busy time")
	depth := 0
	for _, p := range polls {
		if !p.at.Before(nom.start) && !p.at.After(nomEnd) {
			depth = max(depth, p.depth)
		}
	}
	r.info("stream.queue_depth_max", float64(depth), "count", fmt.Sprintf("windows, sampled every %v", lagPollEvery))
	r.info("stream.rejected", float64(s1.Dropped-s0.Dropped), "count", "windows refused 429 queue_full")
	b.acceptPseudo = s1.Adapt.PseudoLabels - s0.Adapt.PseudoLabels
	b.acceptSkipped = s1.Adapt.Skipped - s0.Adapt.Skipped
}

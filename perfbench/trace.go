package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
	"go-arxiv/smore/internal/serve"
)

// span is one timed call into a layer's public function.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`   // 0 for a root span
	Req     int    `json:"req"`      // replayed request, -1 outside the request path
	Name    string `json:"name"`     // layer.Function
	StartNS int64  `json:"start_ns"` // since the tracer started
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the run ends.
// A disabled tracer records nothing, which is the untraced replay its
// overhead is measured against.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent, req int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t.on {
		t.spans[id-1].EndNS = int64(time.Since(t.t0))
	}
}

func (s span) us() float64 { return float64(s.EndNS-s.StartNS) / 1e3 }

// Replay sizes: enough work that each per-layer figure is a median or sum
// over many calls, small enough to fit beside the load phase.
const (
	replayWindows = 2048 // windows through the request path, per pass
	foldReps      = 5
	bootReps      = 5
	codecReps     = 9
	frozenFold    = 64 // fold batch on the workloads where nothing is streamed
)

// replay runs the same inputs in-process through each layer's public
// functions, with and without spans, and reports the per-layer metrics.
func (b *bench) replay(served []byte) error {
	r := b.rep
	bundle, err := pipeline.ReadBundle(bytes.NewReader(served))
	if err != nil {
		return err
	}
	// The encode and model spans take each request's windows as built, not
	// decoded from its body, so they time those layers alone.
	var reqs []*op
	windows := 0
	for i := 0; windows < replayWindows; i++ {
		o := b.in.predicts[i%len(b.in.predicts)]
		reqs = append(reqs, o)
		windows += len(o.ws)
	}
	srv, err := serve.New(bundle, serve.Options{})
	if err != nil {
		return err
	}
	defer srv.Close(context.Background())
	h := srv.Handler()
	enc, err := encode.New(bundle.Encoder)
	if err != nil {
		return err
	}
	snap := bundle.Model.Snapshot()

	pass := func(tr *tracer) (time.Duration, error) {
		t0 := time.Now()
		for i, q := range reqs {
			root := tr.begin("request", 0, i)
			s := tr.begin("serve.Handler.ServeHTTP", root, i)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(q.body)))
			tr.end(s)
			if rec.Code != http.StatusOK {
				return 0, fmt.Errorf("in-process predict: %d %s", rec.Code, rec.Body.String())
			}
			s = tr.begin("encode.Encoder.EncodeBatch", root, i)
			hvs, err := enc.EncodeBatch(q.ws, 0)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			s = tr.begin("model.Snapshot.PredictBatch", root, i)
			snap.PredictBatch(hvs, 0)
			tr.end(s)
			tr.end(root)
		}
		return time.Since(t0), nil
	}
	if _, err := pass(&tracer{}); err != nil { // warm the pools and caches
		return err
	}
	plain, err := pass(&tracer{})
	if err != nil {
		return err
	}
	tr := &tracer{on: true, t0: time.Now()}
	traced, err := pass(tr)
	if err != nil {
		return err
	}

	var self []float64
	var encSum, predSum float64
	for i := 0; i < len(tr.spans); i += 4 { // request, serve, encode, model
		sv, en, pd := tr.spans[i+1], tr.spans[i+2], tr.spans[i+3]
		self = append(self, sv.us()-en.us()-pd.us())
		encSum += en.us()
		predSum += pd.us()
	}
	allocsReq := allocsPer(len(reqs), func() {
		for _, q := range reqs {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(q.body)))
		}
	})
	allocsWin := allocsPer(windows, func() {
		for _, q := range reqs {
			enc.EncodeBatch(q.ws, 0) //nolint:errcheck // the traced pass already encoded these windows
		}
	})
	r.add("serve.self_us", median(self).Value, "us", fmt.Sprintf("median over %d requests of the ServeHTTP span minus the encode and model spans on the same input", len(reqs)))
	r.add("serve.allocs_per_req", allocsReq, "count", "heap allocations per in-process ServeHTTP")
	r.add("encode.us_per_window", encSum/float64(windows), "us", fmt.Sprintf("EncodeBatch, %d windows in %d calls", windows, len(reqs)))
	r.add("encode.allocs_per_window", allocsWin, "count", "")
	r.add("model.predict_us_per_window", predSum/float64(windows), "us", "Snapshot.PredictBatch")
	rows := scoreRows(snap)
	r.add("hdc.score_bytes_per_window", float64(rows*snap.Config().Dim/8), "bytes",
		fmt.Sprintf("computed, not measured: %d prototype rows x dim/8", rows))

	if err := b.replayFold(tr, served, enc); err != nil {
		return err
	}
	if err := b.replayBoot(tr, served); err != nil {
		return err
	}
	if err := b.replayCodec(tr, bundle); err != nil {
		return err
	}
	r.add("pipeline.train_s", b.trainSecs, "s", "pipeline.Train in the set-up")
	r.info("trace.overhead_pct", (traced.Seconds()/plain.Seconds()-1)*100, "%",
		fmt.Sprintf("request replay %.1f ms traced vs %.1f ms untraced; end-to-end metrics come from --trace 0", ms(traced), ms(plain)))

	path := filepath.Join(b.opt.work, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.opt.seed))
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(b.out, "  %d spans written to %s\n", len(tr.spans), path)
	return nil
}

// scoreRows is how many packed prototype rows Snapshot.Predict scores per
// window: the classes of a single adapted target; otherwise the domain
// prototypes plus every domain's classes.
func scoreRows(s *model.Snapshot) int {
	classes := s.Config().Classes
	switch n := s.NumTargets(); {
	case n == 1:
		return classes
	case n > 1:
		return n + n*classes
	}
	return s.NumDomains() + s.NumDomains()*classes
}

// allocsPer is the heap allocation count of f divided by n.
func allocsPer(n int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replayFold times AdaptIncremental, snapshot publish included, on a fresh
// copy of the served model at the coalesced batch size stream-mixed's
// server folded (frozenFold where nothing is streamed).
func (b *bench) replayFold(tr *tracer, served []byte, enc *encode.Encoder) error {
	size, src := frozenFold, b.in.predicts
	if b.w.streamed {
		size, src = max(b.foldBatch, 1), b.in.streams
	}
	var ws [][][]float64
	for i := 0; len(ws) < size; i++ {
		ws = append(ws, src[i%len(src)].ws...)
	}
	hvs, err := enc.EncodeBatch(ws[:size], 0)
	if err != nil {
		return err
	}
	var times, allocs []float64
	var stats model.AdaptStats
	for range foldReps {
		bd, err := pipeline.ReadBundle(bytes.NewReader(served))
		if err != nil {
			return err
		}
		var st model.AdaptStats
		var ferr error
		a := allocsPer(1, func() {
			s := tr.begin("model.Ensemble.AdaptIncremental", 0, -1)
			st, ferr = bd.Model.AdaptIncremental(hvs, 0)
			tr.end(s)
		})
		if ferr != nil {
			return ferr
		}
		last := tr.spans[len(tr.spans)-1]
		times, allocs = append(times, last.us()/1000), append(allocs, a)
		stats = st
	}
	b.rep.add("model.fold_ms", median(times).Value, "ms", fmt.Sprintf("median of %d folds of %d windows", foldReps, size))
	b.rep.add("model.fold_allocs", median(allocs).Value, "count", "")
	pseudo, skipped := stats.PseudoLabels, stats.Skipped
	from := "the traced fold"
	if b.w.streamed {
		pseudo, skipped, from = b.acceptPseudo, b.acceptSkipped, "the server's folds under load"
	}
	b.rep.add("model.accept_frac", float64(pseudo)/float64(max(pseudo+skipped, 1)), "fraction",
		fmt.Sprintf("pseudo-labels accepted / assessed in %s (%d of %d)", from, pseudo, pseudo+skipped))
	return nil
}

// replayBoot times serve.New cold, and serve.New recovering a state dir:
// on stream-mixed the one its server left, elsewhere one holding a single
// checkpoint of the served model.
func (b *bench) replayBoot(tr *tracer, served []byte) error {
	stateDir := b.stateDir
	if !b.w.streamed {
		stateDir = filepath.Join(b.dir, "replay-state")
		bd, err := pipeline.ReadBundle(bytes.NewReader(served))
		if err != nil {
			return err
		}
		srv, err := serve.New(bd, serve.Options{StateDir: stateDir})
		if err != nil {
			return err
		}
		if err := srv.Close(context.Background()); err != nil {
			return err
		}
	}
	timeNew := func(name string, opt serve.Options) (float64, error) {
		var times []float64
		for range bootReps {
			bd, err := pipeline.ReadBundle(bytes.NewReader(served))
			if err != nil {
				return 0, err
			}
			s := tr.begin(name, 0, -1)
			srv, err := serve.New(bd, opt)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			times = append(times, tr.spans[len(tr.spans)-1].us()/1000)
			if err := srv.Close(context.Background()); err != nil {
				return 0, err
			}
		}
		return median(times).Value, nil
	}
	boot, err := timeNew("serve.New", serve.Options{})
	if err != nil {
		return err
	}
	rec, err := timeNew("serve.New.recover", serve.Options{StateDir: stateDir})
	if err != nil {
		return err
	}
	b.rep.add("serve.boot_ms", boot, "ms", fmt.Sprintf("median of %d in-process serve.New", bootReps))
	b.rep.add("serve.recover_ms", rec, "ms", "serve.New recovering a state dir")
	return nil
}

// replayCodec times the bundle codec on the served model.
func (b *bench) replayCodec(tr *tracer, bundle *pipeline.Bundle) error {
	var wr, rd []float64
	var size int
	for range codecReps {
		var buf bytes.Buffer
		s := tr.begin("pipeline.Bundle.WriteTo", 0, -1)
		_, err := bundle.WriteTo(&buf)
		tr.end(s)
		if err != nil {
			return err
		}
		wr = append(wr, tr.spans[len(tr.spans)-1].us()/1000)
		size = buf.Len()
		s = tr.begin("pipeline.ReadBundle", 0, -1)
		_, err = pipeline.ReadBundle(&buf)
		tr.end(s)
		if err != nil {
			return err
		}
		rd = append(rd, tr.spans[len(tr.spans)-1].us()/1000)
	}
	b.rep.add("pipeline.bundle_write_ms", median(wr).Value, "ms", fmt.Sprintf("median of %d", codecReps))
	b.rep.add("pipeline.bundle_read_ms", median(rd).Value, "ms", "")
	b.rep.add("pipeline.bundle_bytes", float64(size), "bytes", "")
	return nil
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"

	"go-arxiv/smore/internal/data"
	"go-arxiv/smore/internal/encode"
	"go-arxiv/smore/internal/model"
	"go-arxiv/smore/internal/pipeline"
)

// workload is one traffic mix. README.md records why each exists and which
// layer metrics should move its end-to-end numbers.
type workload struct {
	name string
	why  string
	// adapted serves the batch-adapted model, which the frozen workloads
	// check against an in-process reference; stream-mixed starts from the
	// source-only model and adapts it live, so it has no reference.
	adapted bool
	// predictWindows is the window count of every predict request.
	predictWindows int
	// nominal is the request rate of the measured phase, per second: at most
	// a third of the capacity of a 2-core VM whose host halves its CPU
	// speed, so latency there measures service, not queueing.
	nominal float64
	// ladder holds the max_rps steps, ascending. The first is the nominal
	// rate, so max_rps is never zero while the nominal phase holds up; the
	// steps bracket the capacity of a 2-core VM both when its host is quiet
	// and when a busy host slows its CPU; the top step is past the quiet
	// capacity.
	ladder []float64
	// p99LimitMS is the latency limit a ladder step must meet at its tail.
	p99LimitMS float64
	// streamed marks stream-mixed: the server checkpoints to a state dir and
	// the schedule carries writes.
	streamed bool
}

var workloads = []workload{
	{
		name:           "predict-single",
		why:            "one-window predicts: per-request HTTP, routing and JSON framing dominate; stream, fold and checkpoint idle",
		adapted:        true,
		predictWindows: 1,
		nominal:        300,
		ladder:         []float64{300, 1000, 1500, 2000, 2500, 2800, 3100, 3400, 3700, 4000, 4400, 4800, 5200, 5600, 6000, 6500, 7000, 8000},
		p99LimitMS:     100,
	},
	{
		name:           "predict-batch",
		why:            "64-window predicts: decode volume, batch encode and PredictBatch dominate; per-request overhead amortised",
		adapted:        true,
		predictWindows: 64,
		nominal:        30,
		ladder:         []float64{30, 45, 60, 70, 80, 90, 100, 110, 120, 135, 150, 165, 180, 200, 240},
		p99LimitMS:     250,
	},
	{
		name:           "stream-mixed",
		why:            "reads mixed with stream enqueues, sync adapts and checkpoints on one instance: the only load on fold, publish and checkpoint I/O",
		adapted:        false,
		predictWindows: 4,
		nominal:        150,
		ladder:         []float64{150, 250, 350, 450, 550, 650, 750, 850, 950, 1050, 1200, 1350, 1500, 1650, 1800},
		p99LimitMS:     100,
		streamed:       true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Stream-mixed request shapes. The mix and the 4-window bodies are
// smore-loadgen's defaults (predict=60,stream=25,drift=10,adapt=5, 4 windows
// per body) without its drift share; README.md says why.
const (
	streamWindows = 4   // windows per stream enqueue
	adaptWindows  = 4   // windows per synchronous adapt
	checkpointGap = 300 // one POST /v1/checkpoint every this many requests
	foldEvery     = 8   // the server's -checkpoint-folds trigger
)

// mixBlock is stream-mixed's request mix per 18 consecutive requests:
// 12 predicts, 5 stream enqueues, 1 synchronous adapt (60:25:5). Each block
// is shuffled by the seed; every checkpointGap-th request is a checkpoint.
var mixBlock = [18]opKind{
	opPredict, opPredict, opPredict, opPredict, opPredict, opPredict,
	opPredict, opPredict, opPredict, opPredict, opPredict, opPredict,
	opStream, opStream, opStream, opStream, opStream, opAdapt,
}

// pipelineConfig is the default model of cmd/smore (dim 4096, 32 levels,
// 4 sensors, 5 classes, 64-step windows, 2 source domains) on the seed.
func pipelineConfig(seed uint64) pipeline.Config {
	return pipeline.Config{
		Encoder: encode.Config{Dim: 4096, Sensors: 4, Levels: 32, NGram: 3, Min: -3, Max: 3, Seed: seed},
		Model: model.Config{
			Dim: 4096, Classes: 5, RetrainEpochs: 3, AdaptEpochs: 10,
			Confidence: 0.005, AdaptRate: 2.0,
		},
		Data: data.Config{
			Sensors: 4, Classes: 5, WindowLen: 64, PerClass: 40, Seed: seed,
			Domains: pipeline.DefaultDomains(2),
		},
		TrainFrac: 0.75,
	}
}

// inputs are a workload's pre-built request bodies.
type inputs struct {
	predicts []*op
	streams  []*op
	adapts   []*op
	kinds    []opKind // stream-mixed: one shuffled mix block per len(mixBlock) requests
	ckpt     *op
}

// Pool sizes: distinct bodies per request kind. The server caches nothing
// per body, so reuse only bounds the driver's memory (a 64-window body is
// about 330 KB of JSON).
const (
	poolPerClass = 200
	predictPool  = 64
	writePool    = 64
)

// pool is the labelled target-domain windows of a seed's dataset: the
// class signatures the seed's model trains on, with fresh noise. Reads draw
// from the first half and writes from the second, so stream-mixed never
// scores a window it has adapted on.
type pool struct {
	windows [][][]float64
	labels  []int
	rng     *rand.Rand
}

func newPool(seed, stream uint64) (*pool, error) {
	cfg := pipelineConfig(seed).Data
	cfg.PerClass = poolPerClass
	ds, err := data.Generate(cfg)
	if err != nil {
		return nil, err
	}
	target := ds.Domains[len(ds.Domains)-1]
	return &pool{windows: data.Windows(target), labels: data.Labels(target), rng: rand.New(rand.NewPCG(seed, stream))}, nil
}

// body builds one request of n windows drawn at random from the read or
// the write half of the pool.
func (p *pool) body(kind opKind, n int) (*op, error) {
	lo, hi := 0, len(p.windows)/2
	if kind != opPredict {
		lo, hi = hi, len(p.windows)
	}
	o := &op{kind: kind}
	ws := make([][][]float64, n)
	for i := range ws {
		j := lo + p.rng.IntN(hi-lo)
		ws[i] = p.windows[j]
		if kind == opPredict {
			o.labels = append(o.labels, p.labels[j])
		}
	}
	body, err := json.Marshal(map[string]any{"windows": ws})
	o.body, o.ws = body, ws
	return o, err
}

func (p *pool) bodies(kind opKind, count, n int) ([]*op, error) {
	ops := make([]*op, count)
	for i := range ops {
		o, err := p.body(kind, n)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}

// buildInputs encodes every request body of the workload on the seed.
func buildInputs(w workload, seed uint64) (*inputs, error) {
	p, err := newPool(seed, 0xbe7c4)
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	if in.predicts, err = p.bodies(opPredict, predictPool, w.predictWindows); err != nil {
		return nil, err
	}
	if !w.streamed {
		return in, nil
	}
	if in.streams, err = p.bodies(opStream, writePool, streamWindows); err != nil {
		return nil, err
	}
	if in.adapts, err = p.bodies(opAdapt, writePool, adaptWindows); err != nil {
		return nil, err
	}
	in.ckpt = &op{kind: opCheckpoint}
	in.kinds = make([]opKind, 0, len(mixBlock)*16)
	for range 16 {
		blk := mixBlock
		p.rng.Shuffle(len(blk), func(i, j int) { blk[i], blk[j] = blk[j], blk[i] })
		in.kinds = append(in.kinds, blk[:]...)
	}
	return in, nil
}

// The accuracy probe: every set-up model predicts probeWindows labelled
// target windows of its own seed, in 64-window requests. On stream-mixed
// the model first adapts on as many windows sent through the stream route in
// one request, which the server folds as one batch, so the result does not
// depend on how the worker happened to coalesce them.
const probeWindows = 256

// probe is one set-up model's accuracy probe.
type probe struct {
	predicts []*op
	streams  []*op
}

func buildProbe(w workload, seed uint64) (*probe, error) {
	p, err := newPool(seed, 0x970be)
	if err != nil {
		return nil, err
	}
	pb := &probe{}
	if pb.predicts, err = p.bodies(opPredict, probeWindows/64, 64); err != nil {
		return nil, err
	}
	if w.streamed {
		pb.streams, err = p.bodies(opStream, 1, probeWindows)
	}
	return pb, err
}

// modelSeed is the data and model seed of set-up i of a run: the run's own
// seed for the served model (i = 0), seeds drawn from it for the others.
func modelSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	return rand.New(rand.NewPCG(seed, uint64(i))).Uint64()
}

// pick returns request i of a phase whose schedule starts at request
// offset off of the run (so phases do not replay the same prefix).
func (in *inputs) pick(off int) func(i int) *op {
	return func(i int) *op {
		n := off + i
		if in.kinds == nil {
			return in.predicts[n%len(in.predicts)]
		}
		if n%checkpointGap == checkpointGap-1 {
			return in.ckpt
		}
		switch in.kinds[n%len(in.kinds)] {
		case opStream:
			return in.streams[n%len(in.streams)]
		case opAdapt:
			return in.adapts[n%len(in.adapts)]
		}
		return in.predicts[n%len(in.predicts)]
	}
}

// setReference fills every predict body's expected predictions from an
// in-process PredictBatch on the served bundle.
func setReference(b *pipeline.Bundle, ops []*op) error {
	enc, err := encode.New(b.Encoder)
	if err != nil {
		return err
	}
	snap := b.Model.Snapshot()
	for _, o := range ops {
		hvs, err := enc.EncodeBatch(o.ws, 0)
		if err != nil {
			return err
		}
		o.want = snap.PredictBatch(hvs, 0)
	}
	return nil
}

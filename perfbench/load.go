package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand/v2"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// failLatencyMS is the latency booked for a failed, refused or wrong
// request. It is the client timeout, so such a request misses every latency
// limit the benchmark sets.
const failLatencyMS = 10_000

type opKind uint8

const (
	opPredict opKind = iota
	opStream
	opAdapt
	opCheckpoint
)

var opPaths = [...]string{
	opPredict:    "/v1/predict",
	opStream:     "/v1/stream/adapt",
	opAdapt:      "/v1/adapt",
	opCheckpoint: "/v1/checkpoint",
}

// op is one request, built before any timing starts.
type op struct {
	kind   opKind
	body   []byte
	ws     [][][]float64 // the windows encoded in body
	labels []int         // true class of each window (predict only)
	want   []int         // reference predictions; nil when the served model adapts
}

// outcome is what happened to one request of a phase.
type outcome struct {
	kind   opKind
	latMS  float64 // from when it was due to when its response was read
	failed bool    // transport error, unexpected status, or wrong answer
	wrong  bool    // a response that contradicts the reference or is malformed
	hits   int     // predictions equal to the window's label
	preds  int     // predictions returned
}

// ack is one 202 from the stream route: when it arrived, and an upper
// bound on the enqueue position of its last window (windows acknowledged so
// far plus windows of other stream requests still in flight, since any
// window queued ahead of it is one or the other).
type ack struct {
	at    time.Time
	bound int64
}

// driver sends requests on an open loop: each phase has a fixed arrival
// schedule, and a request that cannot be sent on time because every
// connection is busy waits for one, its latency counted from when it was due.
type driver struct {
	base   string
	client *http.Client
	conns  int
	rng    *rand.Rand // arrival schedules, in phase order

	acked          atomic.Int64 // windows the server answered 202 for
	streamInFlight atomic.Int64 // windows of stream requests awaiting a response
	ackMu          sync.Mutex
	acks           []ack
}

func newDriver(base string, conns int, seed uint64) *driver {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &driver{
		base:   base,
		client: &http.Client{Transport: tr, Timeout: failLatencyMS * time.Millisecond},
		conns:  conns,
		rng:    rand.New(rand.NewPCG(seed, 0xa77)),
	}
}

func (d *driver) close() { d.client.CloseIdleConnections() }

// phaseResult is one phase of open-loop load.
type phaseResult struct {
	rate     float64
	schedule time.Duration // due time of the last request
	out      []outcome
	lateMS   []float64 // how late the pacer released each request
	backlog  []int     // requests due but not completed, every backlogEvery
	start    time.Time
	end      time.Time // when the last response arrived
}

const backlogEvery = 25 * time.Millisecond

// arrivals draws the offsets of n requests spread uniformly at random over
// n/rate seconds, sorted: a Poisson process at rate per second conditioned
// on its count. Requests from independent users bunch up by chance the way
// real traffic does, yet every phase lasts exactly as long as its rate says,
// and the seed fixes the schedule.
func arrivals(rng *rand.Rand, rate float64, n int) []time.Duration {
	span := float64(n) / rate * float64(time.Second)
	at := make([]time.Duration, n)
	for i := range at {
		at[i] = time.Duration(rng.Float64() * span)
	}
	slices.Sort(at)
	return at
}

// run offers n requests at rate per second on the driver's arrival schedule,
// on at most d.conns connections.
func (d *driver) run(rate float64, n int, pick func(i int) *op) phaseResult {
	at := arrivals(d.rng, rate, n)
	res := phaseResult{
		rate:     rate,
		schedule: at[n-1],
		out:      make([]outcome, n),
		lateMS:   make([]float64, n),
	}
	// Buffered to the number of sends: the pacer never waits on a busy
	// server, so a stall shows up as queueing delay, not as missing load.
	jobs := make(chan int, n)
	var completed atomic.Int64
	res.start = time.Now().Add(2 * time.Millisecond)
	var wg sync.WaitGroup
	for range d.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				res.out[i] = d.do(pick(i), res.start.Add(at[i]))
				completed.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	sampled := make(chan []int)
	go func() {
		var samples []int
		t := time.NewTicker(backlogEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				sampled <- samples
				return
			case now := <-t.C:
				due := sort.Search(n, func(i int) bool { return res.start.Add(at[i]).After(now) })
				samples = append(samples, due-int(completed.Load()))
			}
		}
	}()
	for i := range n {
		due := res.start.Add(at[i])
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		res.lateMS[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	res.end = time.Now()
	// Only samples inside the arrival schedule describe the offered rate.
	close(stop)
	samples := <-sampled
	if keep := int(res.schedule / backlogEvery); keep < len(samples) {
		samples = samples[:keep]
	}
	res.backlog = samples
	return res
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// do sends one request and judges its response.
func (d *driver) do(o *op, due time.Time) outcome {
	out := outcome{kind: o.kind}
	n := int64(len(o.ws))
	if o.kind == opStream {
		d.streamInFlight.Add(n)
	}
	status, body, err := d.post(opPaths[o.kind], o.body)
	done := time.Now()
	if o.kind == opStream {
		others := d.streamInFlight.Add(-n)
		if err == nil && status == http.StatusAccepted {
			a := ack{at: done, bound: d.acked.Add(n) + others}
			d.ackMu.Lock()
			d.acks = append(d.acks, a)
			d.ackMu.Unlock()
		}
	}
	out.latMS = ms(done.Sub(due))
	switch {
	case err != nil:
		out.failed = true
	case o.kind == opPredict:
		out.failed, out.wrong = d.judgePredict(o, status, body, &out)
	case o.kind == opStream:
		out.failed = status != http.StatusAccepted
	default:
		out.failed = status != http.StatusOK
	}
	if out.failed {
		out.latMS = failLatencyMS
	}
	return out
}

// judgePredict checks a predict response: one prediction per window, equal
// to the reference where there is one; it also counts label hits.
func (d *driver) judgePredict(o *op, status int, body []byte, out *outcome) (failed, wrong bool) {
	if status != http.StatusOK {
		return true, false
	}
	var resp struct {
		Predictions []int `json:"predictions"`
	}
	if err := json.Unmarshal(body, &resp); err != nil || len(resp.Predictions) != len(o.ws) {
		return true, true
	}
	out.preds = len(resp.Predictions)
	for i, p := range resp.Predictions {
		if p == o.labels[i] {
			out.hits++
		}
		if o.want != nil && p != o.want[i] {
			wrong = true
		}
	}
	return wrong, wrong
}

func (d *driver) post(path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// poll is one /v1/stream/stats sample.
type poll struct {
	at     time.Time
	folded int64
	depth  int
}

// poller samples the stream stats every `every` until stopped, on a
// connection of its own so that a poll never holds up a load request.
type poller struct {
	every  time.Duration
	client *http.Client
	stop   chan struct{}
	done   chan []poll
}

func (d *driver) startPoller(every time.Duration) *poller {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	p := &poller{
		every:  every,
		client: &http.Client{Transport: tr, Timeout: failLatencyMS * time.Millisecond},
		stop:   make(chan struct{}),
		done:   make(chan []poll, 1),
	}
	go func() {
		var polls []poll
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.done <- polls
				return
			case <-t.C:
				st, err := getStreamStats(p.client, d.base)
				if err == nil {
					polls = append(polls, poll{at: time.Now(), folded: st.WindowsFolded, depth: st.QueueDepth})
				}
			}
		}
	}()
	return p
}

func (p *poller) finish() []poll {
	close(p.stop)
	polls := <-p.done
	p.client.CloseIdleConnections()
	return polls
}

// foldLags resolves each ack's fold lag: the time from its 202 to the first
// poll showing windows_folded_total at or past its enqueue-position bound
// (capped at the final acknowledged total, which a drained server has
// folded). Acks no poll resolves are skipped.
func foldLags(acks []ack, polls []poll, base, finalAcked int64) []float64 {
	var lags []float64
	for _, a := range acks {
		target := min(a.bound, finalAcked)
		for _, p := range polls {
			if p.at.Before(a.at) || p.folded-base < target {
				continue
			}
			lags = append(lags, ms(p.at.Sub(a.at)))
			break
		}
	}
	return lags
}

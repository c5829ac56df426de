package serve

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"
)

// metrics holds the server's request, per-stage latency, and registry
// counters. All counters are atomics so the hot handlers never contend on a
// lock, and the /metrics rendering is a consistent-enough snapshot for
// monitoring.
type metrics struct {
	endpoints map[string]*endpointMetrics
	stages    map[string]*stageMetrics

	// Registry lifecycle counters.
	uploads   atomic.Int64
	swaps     atomic.Int64
	evictions atomic.Int64
	deletes   atomic.Int64

	// overloadRejects counts requests turned away 429 by the in-flight
	// admission cap (Options.MaxInFlight).
	overloadRejects atomic.Int64
}

// endpointMetrics counts one HTTP endpoint's requests, errors, total
// wall-clock latency, and response writes that failed mid-flight (client
// gone before the body — including the error envelope itself — landed).
type endpointMetrics struct {
	requests    atomic.Int64
	errors      atomic.Int64
	nanos       atomic.Int64
	writeErrors atomic.Int64
}

// stageMetrics counts one processing stage's operations and cumulative
// latency, independent of which endpoint invoked it.
type stageMetrics struct {
	ops   atomic.Int64
	nanos atomic.Int64
}

func newMetrics() *metrics {
	m := &metrics{
		endpoints: map[string]*endpointMetrics{},
		stages:    map[string]*stageMetrics{},
	}
	for _, e := range []string{"predict", "adapt", "stream_adapt", "stream_stats", "stream_rollback",
		"checkpoint", "model", "models", "model_upload", "model_delete", "healthz", "metrics"} {
		m.endpoints[e] = &endpointMetrics{}
	}
	for _, s := range []string{"decode", "upload", "encode", "infer", "adapt", "export", "stream_encode", "fold", "rollback", "checkpoint"} {
		m.stages[s] = &stageMetrics{}
	}
	return m
}

// observeRequest records one finished request on an endpoint.
func (m *metrics) observeRequest(endpoint string, start time.Time, failed bool) {
	em := m.endpoints[endpoint]
	em.requests.Add(1)
	em.nanos.Add(int64(time.Since(start)))
	if failed {
		em.errors.Add(1)
	}
}

// observeWriteError records a response-body write that failed after the
// handler committed to a status — there is nothing left to send the client,
// so the failure is only counted.
func (m *metrics) observeWriteError(endpoint string) {
	m.endpoints[endpoint].writeErrors.Add(1)
}

// stage times one processing stage: call the returned func when the stage
// completes.
func (m *metrics) stage(name string) func() {
	start := time.Now()
	sm := m.stages[name]
	return func() {
		sm.ops.Add(1)
		sm.nanos.Add(int64(time.Since(start)))
	}
}

// render writes the counters in Prometheus text exposition format: the
// global endpoint/stage/registry counters, then one labeled series per
// registered model (infos arrives name-sorted), so the output is stable.
func (m *metrics) render(w io.Writer, infos []modelInfo) {
	fmt.Fprintf(w, "# HELP smore_requests_total Requests received per endpoint.\n")
	fmt.Fprintf(w, "# TYPE smore_requests_total counter\n")
	for _, e := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "smore_requests_total{endpoint=%q} %d\n", e, m.endpoints[e].requests.Load())
	}
	fmt.Fprintf(w, "# HELP smore_request_errors_total Requests that returned a non-2xx status.\n")
	fmt.Fprintf(w, "# TYPE smore_request_errors_total counter\n")
	for _, e := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "smore_request_errors_total{endpoint=%q} %d\n", e, m.endpoints[e].errors.Load())
	}
	fmt.Fprintf(w, "# HELP smore_response_write_errors_total Response writes that failed after the status was committed.\n")
	fmt.Fprintf(w, "# TYPE smore_response_write_errors_total counter\n")
	for _, e := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "smore_response_write_errors_total{endpoint=%q} %d\n", e, m.endpoints[e].writeErrors.Load())
	}
	fmt.Fprintf(w, "# HELP smore_request_latency_seconds_total Cumulative request wall-clock time per endpoint.\n")
	fmt.Fprintf(w, "# TYPE smore_request_latency_seconds_total counter\n")
	for _, e := range sortedKeys(m.endpoints) {
		fmt.Fprintf(w, "smore_request_latency_seconds_total{endpoint=%q} %.9f\n",
			e, float64(m.endpoints[e].nanos.Load())/1e9)
	}
	fmt.Fprintf(w, "# HELP smore_stage_ops_total Completed operations per pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE smore_stage_ops_total counter\n")
	for _, s := range sortedKeys(m.stages) {
		fmt.Fprintf(w, "smore_stage_ops_total{stage=%q} %d\n", s, m.stages[s].ops.Load())
	}
	fmt.Fprintf(w, "# HELP smore_stage_latency_seconds_total Cumulative time spent per pipeline stage.\n")
	fmt.Fprintf(w, "# TYPE smore_stage_latency_seconds_total counter\n")
	for _, s := range sortedKeys(m.stages) {
		fmt.Fprintf(w, "smore_stage_latency_seconds_total{stage=%q} %.9f\n",
			s, float64(m.stages[s].nanos.Load())/1e9)
	}

	fmt.Fprintf(w, "# HELP smore_models Models currently registered.\n")
	fmt.Fprintf(w, "# TYPE smore_models gauge\n")
	fmt.Fprintf(w, "smore_models %d\n", len(infos))
	fmt.Fprintf(w, "# HELP smore_model_uploads_total Bundles installed through the registry (creates plus swaps).\n")
	fmt.Fprintf(w, "# TYPE smore_model_uploads_total counter\n")
	fmt.Fprintf(w, "smore_model_uploads_total %d\n", m.uploads.Load())
	fmt.Fprintf(w, "# HELP smore_model_swaps_total Uploads that hot-swapped an existing model.\n")
	fmt.Fprintf(w, "# TYPE smore_model_swaps_total counter\n")
	fmt.Fprintf(w, "smore_model_swaps_total %d\n", m.swaps.Load())
	fmt.Fprintf(w, "# HELP smore_model_evictions_total Models displaced by LRU eviction.\n")
	fmt.Fprintf(w, "# TYPE smore_model_evictions_total counter\n")
	fmt.Fprintf(w, "smore_model_evictions_total %d\n", m.evictions.Load())
	fmt.Fprintf(w, "# HELP smore_model_deletes_total Models removed by DELETE.\n")
	fmt.Fprintf(w, "# TYPE smore_model_deletes_total counter\n")
	fmt.Fprintf(w, "smore_model_deletes_total %d\n", m.deletes.Load())
	fmt.Fprintf(w, "# HELP smore_overload_rejects_total Requests rejected 429 by the in-flight admission cap.\n")
	fmt.Fprintf(w, "# TYPE smore_overload_rejects_total counter\n")
	fmt.Fprintf(w, "smore_overload_rejects_total %d\n", m.overloadRejects.Load())

	fmt.Fprintf(w, "# HELP smore_model_adapted Whether the served ensemble has an adapted target model.\n")
	fmt.Fprintf(w, "# TYPE smore_model_adapted gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_model_adapted{model=%q} %d\n", mi.Name, b2i(mi.Adapted))
	}
	fmt.Fprintf(w, "# HELP smore_model_dim Hypervector dimension of the served model.\n")
	fmt.Fprintf(w, "# TYPE smore_model_dim gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_model_dim{model=%q} %d\n", mi.Name, mi.Dim)
	}
	fmt.Fprintf(w, "# HELP smore_model_classes Class count of the served model.\n")
	fmt.Fprintf(w, "# TYPE smore_model_classes gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_model_classes{model=%q} %d\n", mi.Name, mi.Classes)
	}

	fmt.Fprintf(w, "# HELP smore_stream_queue_depth Windows waiting in the streaming adaptation queue.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_queue_depth gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_queue_depth{model=%q} %d\n", mi.Name, mi.Stream.QueueDepth)
	}
	fmt.Fprintf(w, "# HELP smore_stream_queue_capacity Configured streaming queue capacity.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_queue_capacity gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_queue_capacity{model=%q} %d\n", mi.Name, mi.Stream.Capacity)
	}
	fmt.Fprintf(w, "# HELP smore_stream_in_flight Windows taken by the adapter but not yet folded.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_in_flight gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_in_flight{model=%q} %d\n", mi.Name, mi.Stream.InFlight)
	}
	fmt.Fprintf(w, "# HELP smore_stream_windows_enqueued_total Windows accepted onto the streaming queue.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_windows_enqueued_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_windows_enqueued_total{model=%q} %d\n", mi.Name, mi.Stream.Enqueued)
	}
	fmt.Fprintf(w, "# HELP smore_stream_windows_dropped_total Windows rejected with queue-full backpressure.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_windows_dropped_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_windows_dropped_total{model=%q} %d\n", mi.Name, mi.Stream.Dropped)
	}
	fmt.Fprintf(w, "# HELP smore_stream_batches_folded_total Micro-batches folded into the model.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_batches_folded_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_batches_folded_total{model=%q} %d\n", mi.Name, mi.Stream.BatchesFolded)
	}
	fmt.Fprintf(w, "# HELP smore_stream_windows_folded_total Windows folded into the model.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_windows_folded_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_windows_folded_total{model=%q} %d\n", mi.Name, mi.Stream.WindowsFolded)
	}
	fmt.Fprintf(w, "# HELP smore_stream_errors_total Streaming batches dropped by a failed stage.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_errors_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_errors_total{model=%q,stage=\"encode\"} %d\n", mi.Name, mi.Stream.EncodeErrors)
		fmt.Fprintf(w, "smore_stream_errors_total{model=%q,stage=\"fold\"} %d\n", mi.Name, mi.Stream.FoldErrors)
	}
	fmt.Fprintf(w, "# HELP smore_stream_windows_lost_total Accepted windows discarded by a failed encode or fold.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_windows_lost_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_windows_lost_total{model=%q} %d\n", mi.Name, mi.Stream.WindowsLost)
	}
	fmt.Fprintf(w, "# HELP smore_stream_pseudo_labels_total Pseudo-labels applied by streamed folds.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_pseudo_labels_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_pseudo_labels_total{model=%q} %d\n", mi.Name, mi.Stream.Adapt.PseudoLabels)
	}

	fmt.Fprintf(w, "# HELP smore_model_targets Live target domains held by the served ensemble.\n")
	fmt.Fprintf(w, "# TYPE smore_model_targets gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_model_targets{model=%q} %d\n", mi.Name, len(mi.Targets))
	}
	fmt.Fprintf(w, "# HELP smore_stream_similarity_ema Batch-vs-active-target similarity EMA (0 until the first measurement).\n")
	fmt.Fprintf(w, "# TYPE smore_stream_similarity_ema gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_similarity_ema{model=%q} %.6f\n", mi.Name, mi.Stream.SimilarityEMA)
	}
	fmt.Fprintf(w, "# HELP smore_stream_folds_on_target Successful folds since the active target last changed.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_folds_on_target gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_folds_on_target{model=%q} %d\n", mi.Name, mi.Stream.FoldsOnTarget)
	}
	fmt.Fprintf(w, "# HELP smore_stream_targets_spawned_total Target domains opened by the drift policy.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_targets_spawned_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_targets_spawned_total{model=%q} %d\n", mi.Name, mi.Stream.TargetsSpawned)
	}
	fmt.Fprintf(w, "# HELP smore_stream_targets_retired_total Target domains retired past the MaxTargets bound.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_targets_retired_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_targets_retired_total{model=%q} %d\n", mi.Name, mi.Stream.TargetsRetired)
	}
	fmt.Fprintf(w, "# HELP smore_stream_rollbacks_total Checkpoint restores served on the rollback route.\n")
	fmt.Fprintf(w, "# TYPE smore_stream_rollbacks_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_stream_rollbacks_total{model=%q} %d\n", mi.Name, mi.Rollback)
	}

	fmt.Fprintf(w, "# HELP smore_checkpoint_generation Latest durable checkpoint generation persisted for the model (0 before the first).\n")
	fmt.Fprintf(w, "# TYPE smore_checkpoint_generation gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_checkpoint_generation{model=%q} %d\n", mi.Name, mi.CheckpointGen)
	}
	fmt.Fprintf(w, "# HELP smore_checkpoints_total Durable checkpoints persisted for the model.\n")
	fmt.Fprintf(w, "# TYPE smore_checkpoints_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_checkpoints_total{model=%q} %d\n", mi.Name, mi.Checkpoints)
	}
	fmt.Fprintf(w, "# HELP smore_checkpoint_failures_total Durable checkpoint attempts that failed to persist.\n")
	fmt.Fprintf(w, "# TYPE smore_checkpoint_failures_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_checkpoint_failures_total{model=%q} %d\n", mi.Name, mi.CheckpointFailures)
	}
	fmt.Fprintf(w, "# HELP smore_breaker_state Stream-fold circuit state: 0 closed, 1 half-open, 2 open.\n")
	fmt.Fprintf(w, "# TYPE smore_breaker_state gauge\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_breaker_state{model=%q} %d\n", mi.Name, breakerStateValue(mi.Breaker))
	}
	fmt.Fprintf(w, "# HELP smore_breaker_opens_total Stream-fold circuit transitions to open.\n")
	fmt.Fprintf(w, "# TYPE smore_breaker_opens_total counter\n")
	for _, mi := range infos {
		fmt.Fprintf(w, "smore_breaker_opens_total{model=%q} %d\n", mi.Name, mi.BreakerOpens)
	}
}

// breakerStateValue maps a breaker state name to its gauge value.
func breakerStateValue(state string) int {
	switch state {
	case "open":
		return 2
	case "half_open":
		return 1
	default:
		return 0
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

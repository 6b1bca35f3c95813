// Prometheus text exposition for serving metrics — hand-rolled against
// the text format (version 0.0.4) so the scrape endpoint needs no
// client library. Durations are exported in seconds per Prometheus
// convention; LatencyStats summaries expose their fixed quantiles
// (0.5/0.95/0.99 and the max as quantile="1") plus _sum/_count, with
// _sum reconstructed as mean x count (exact enough for rate math — the
// histogram keeps nanosecond sums internally but snapshots a mean).

package pipeline

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(s)
}

// PromLabel renders one label pair (value escaped) for the exposition
// format — shared with sibling packages that expose their own series.
func PromLabel(name, value string) string {
	return name + `="` + promEscape(value) + `"`
}

// PromFamily writes one metric family header (HELP + TYPE).
func PromFamily(w io.Writer, name, typ, help string) { promHead(w, name, typ, help) }

// PromSample writes one sample; labels is the inner label list (no
// braces), empty for an unlabelled series.
func PromSample(w io.Writer, name, labels string, v float64) { promVal(w, name, labels, v) }

// PromSummary writes the stats as one complete summary family.
func (s LatencyStats) PromSummary(w io.Writer, name, help, labels string) {
	promSummary(w, name, help, labels, s)
}

// PromSummaryRow writes the stats' samples without the family header,
// for families with one series per label set (per-model latency).
func (s LatencyStats) PromSummaryRow(w io.Writer, name, labels string) {
	promSummaryRow(w, name, labels, s)
}

// promHead writes one metric family header.
func promHead(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// promVal writes one sample; labels is the inner label list (no
// braces), empty for an unlabelled series.
func promVal(w io.Writer, name, labels string, v float64) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %g\n", name, labels, v)
}

// promSummary writes one LatencyStats as a Prometheus summary family.
func promSummary(w io.Writer, name, help, labels string, s LatencyStats) {
	promHead(w, name, "summary", help)
	promSummaryRow(w, name, labels, s)
}

// promSummaryRow writes a summary's samples without the family header,
// so multi-series families (per-model latency) emit one header.
func promSummaryRow(w io.Writer, name, labels string, s LatencyStats) {
	q := func(quantile string, d time.Duration) {
		l := `quantile="` + quantile + `"`
		if labels != "" {
			l = labels + "," + l
		}
		promVal(w, name, l, d.Seconds())
	}
	q("0.5", s.P50)
	q("0.95", s.P95)
	q("0.99", s.P99)
	q("1", s.Max)
	promVal(w, name+"_sum", labels, s.Mean.Seconds()*float64(s.Count))
	promVal(w, name+"_count", labels, float64(s.Count))
}

// WritePrometheus writes the serving snapshot in Prometheus text
// exposition format under the neurogo_serving_* namespace. Wire it to
// a handler with:
//
//	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
//		ap.Metrics().WritePrometheus(w)
//	})
func (m Metrics) WritePrometheus(w io.Writer) {
	gauge := func(name, help string, v float64) {
		promHead(w, name, "gauge", help)
		promVal(w, name, "", v)
	}
	counter := func(name, help string, v uint64) {
		promHead(w, name, "counter", help)
		promVal(w, name, "", float64(v))
	}

	// Configuration echo.
	gauge("neurogo_serving_workers", "Worker sessions in the async pool.", float64(m.Workers))
	gauge("neurogo_serving_queue_capacity", "Bound of the priority-classed submit queue.", float64(m.QueueCap))
	gauge("neurogo_serving_max_batch", "Adaptive micro-batch cap (1: batching off).", float64(m.MaxBatch))
	gauge("neurogo_serving_batch_window_seconds", "Micro-batch coalescing window.", m.BatchWindow.Seconds())
	gauge("neurogo_serving_slo_budget_seconds", "Tail-latency budget admission control defends (0: disabled).", m.SLOBudget.Seconds())

	// Gauges.
	gauge("neurogo_serving_queue_depth", "Requests admitted but not yet on a worker.", float64(m.QueueDepth))
	gauge("neurogo_serving_in_flight", "Requests currently on a worker.", float64(m.InFlight))
	gauge("neurogo_serving_service_ewma_seconds", "Smoothed per-request service time.", m.ServiceEWMA.Seconds())
	gauge("neurogo_serving_estimated_wait_seconds", "Predicted queue wait for a request admitted now.", m.EstimatedWait.Seconds())
	gauge("neurogo_serving_streams_open", "Streams opened and not yet drained.", float64(m.StreamsOpen))

	// Counters.
	counter("neurogo_serving_submitted_total", "Requests admitted into the queue.", m.Submitted)
	counter("neurogo_serving_completed_total", "Results delivered, including failures.", m.Completed)
	counter("neurogo_serving_failed_total", "Completions carrying a non-nil error.", m.Failed)
	counter("neurogo_serving_rejected_total", "Submissions refused: closed front-end or caller context done.", m.Rejected)
	counter("neurogo_serving_shed_total", "Low-priority submissions refused by admission control.", m.Shed)
	counter("neurogo_serving_expired_total", "Requests failed at dequeue because the SLO budget lapsed in queue.", m.Expired)
	counter("neurogo_serving_batches_total", "Micro-batch dispatches.", m.Batches)
	counter("neurogo_serving_batched_requests_total", "Requests carried by micro-batch dispatches.", m.BatchedRequests)
	counter("neurogo_serving_full_batches_total", "Batches dispatched because they filled.", m.FullBatches)
	counter("neurogo_serving_deadline_batches_total", "Batches dispatched at the window deadline.", m.DeadlineBatches)
	counter("neurogo_serving_drain_batches_total", "Batches dispatched short because the queue ran dry.", m.DrainBatches)
	counter("neurogo_serving_streams_opened_total", "Streams opened via OpenStream.", m.StreamsOpened)
	counter("neurogo_serving_streams_closed_total", "Streams ended by Drain.", m.StreamsClosed)
	counter("neurogo_serving_stream_frames_total", "Ticks advanced across all streams.", m.StreamFrames)
	counter("neurogo_serving_stream_decisions_total", "Continuous decisions delivered by streams.", m.StreamDecisions)

	// Latency summaries.
	promSummary(w, "neurogo_serving_queue_wait_seconds", "Queue wait: submit-accept to serve-start.", "", m.QueueWait)
	promSummary(w, "neurogo_serving_end_to_end_seconds", "End-to-end: submit-accept to result delivered.", "", m.EndToEnd)
	promSummary(w, "neurogo_serving_stream_op_seconds", "One stream operation: Tick, Push, Present or Drain.", "", m.StreamLatency)

	// Per-admission-class splits: one summary family each, one series
	// per class, so an alert can watch the high class's tail directly.
	if len(m.PerPriority) > 0 {
		promHead(w, "neurogo_serving_class_queue_wait_seconds", "summary", "Queue wait split by admission class.")
		for _, pc := range m.PerPriority {
			promSummaryRow(w, "neurogo_serving_class_queue_wait_seconds", PromLabel("class", pc.Class), pc.QueueWait)
		}
		promHead(w, "neurogo_serving_class_end_to_end_seconds", "summary", "End-to-end latency split by admission class.")
		for _, pc := range m.PerPriority {
			promSummaryRow(w, "neurogo_serving_class_end_to_end_seconds", PromLabel("class", pc.Class), pc.EndToEnd)
		}
	}
}

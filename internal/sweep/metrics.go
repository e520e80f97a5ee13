package sweep

import (
	"time"

	"repro/internal/obs"
)

// Process-wide sweep metrics (obs default registry, served at GET /metrics).
// One Run is one Bentley–Ottmann pass — import validation, ring-simplicity
// checks and (eventually) sweep-built arrangement construction all land
// here, so the counters read as "geometry events this process has swept".
var (
	mRunLatency = obs.Default.Histogram(
		"topoinv_sweep_run_seconds",
		"Wall-clock latency of one plane-sweep pass.",
		obs.DefLatencyBuckets)
	mSegments = obs.Default.Counter(
		"topoinv_sweep_segments_total",
		"Input segments swept.")
	mEvents = obs.Default.Counter(
		"topoinv_sweep_events_total",
		"Event points processed (endpoints plus scheduled crossings).")
	mIntersections = obs.Default.Counter(
		"topoinv_sweep_intersections_total",
		"Intersecting pairs reported to sweep clients.")
)

// record adds one finished pass, started at start, to the metrics.
func (sw *sweeper) record(start time.Time) {
	mRunLatency.ObserveDuration(time.Since(start))
	mSegments.Add(uint64(len(sw.segs)))
	mEvents.Add(sw.eventsProcessed)
	mIntersections.Add(sw.pairsReported)
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
)

// minCoverage is the share of the traced session wall time that the
// top-level layer spans must cover.
const minCoverage = 0.95

// report assembles a traced run's per-layer metrics from the library
// replay and the service run. goFromServer takes the Go runtime figures
// from the server process (serve-store) instead of the replay's own
// untraced sessions.
func (rp *replay) report(svc *serviceStats, goFromServer bool, outDir, name string, seed int64) (*result, *layerReport, error) {
	n := float64(rp.sessions)
	self := rp.tr.selfTimes()
	per := func(span string) float64 { return self[span] / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	st := rp.stats
	coverage := rp.tr.coverage("session")
	failed := rp.failed

	var queue, run, http []float64
	rejected := 0
	for _, r := range svc.recs {
		if !r.ok {
			failed++
		}
		if r.rejected {
			rejected++
		}
		queue = append(queue, r.status.QueuedMS)
		run = append(run, r.status.RunMS)
		http = append(http, ms(r.latency)-r.status.QueuedMS-r.status.RunMS)
	}
	c0, c1 := svc.before.Cones, svc.after.Cones
	p0, p1 := svc.before.Components, svc.after.Components

	allocMB, gcs := float64(rp.allocBytes)/(1<<20)/n, float64(rp.gcs)/n
	if goFromServer {
		reqs := float64(len(svc.recs))
		allocMB, gcs = float64(svc.allocBytes)/(1<<20)/reqs, float64(svc.gcs)/reqs
	}
	m := map[string]metric{
		"blif.parse_ms":             {per("blif.parse"), "ms"},
		"miter.base_ms":             {per("miter.base"), "ms"},
		"synth.base_ms":             {per("synth.base"), "ms"},
		"synth.base_node_ratio":     {ratio(float64(rp.nodesAfter), float64(rp.nodesBefore)), "ratio"},
		"plan.build_ms":             {per("plan.build"), "ms"},
		"plan.cones_ms":             {per("plan.build") - per("miter.base") - per("synth.base"), "ms"},
		"plan.tasks_unique":         {float64(rp.tasksUnique) / n, "count"},
		"plan.dedup_ratio":          {1 - ratio(float64(rp.tasksUnique), float64(rp.tasksRequested)), "ratio"},
		"cnf.encode_ms":             {per("cnf.encode"), "ms"},
		"cnf.clauses":               {float64(rp.clauses) / n, "count"},
		"engine.run_ms":             {per("engine.run"), "ms"},
		"engine.task_ms_max":        {rp.taskMSMax / n, "ms"},
		"engine.parallel_eff":       {ratio(rp.taskMSSum, rp.capacityMS), "ratio"},
		"counter.count_ms":          {per("counter.count"), "ms"},
		"counter.decisions":         {float64(st.Decisions) / n, "count"},
		"counter.propagations":      {float64(st.Propagations) / n, "count"},
		"counter.components":        {float64(st.Components) / n, "count"},
		"counter.cache_hit_ratio":   {ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheStores)), "ratio"},
		"counter.cache_cross_hits":  {float64(st.CacheCrossHits) / n, "count"},
		"counter.learned":           {float64(st.Learned) / n, "count"},
		"counter.sim_calls":         {float64(st.SimCalls) / n, "count"},
		"counter.sim_accept_ratio":  {ratio(float64(st.SimCalls), float64(st.SimCalls+st.SimRejected)), "ratio"},
		"counter.sim_patterns":      {float64(st.SimPatterns) / n, "count"},
		"store.cone_hit_ratio":      {ratio(float64(c1.Hits-c0.Hits), float64(c1.Hits-c0.Hits+c1.Misses-c0.Misses)), "ratio"},
		"store.cone_stores":         {float64(c1.Stores - c0.Stores), "count"},
		"store.component_entries":   {float64(p1.Entries), "count"},
		"store.component_hit_ratio": {ratio(float64(p1.Hits-p0.Hits), float64(p1.Hits-p0.Hits+p1.Misses-p0.Misses)), "ratio"},
		"serve.queue_ms":            {quantile(queue, 0.5), "ms"},
		"serve.run_ms":              {quantile(run, 0.5), "ms"},
		"serve.http_ms":             {quantile(http, 0.5), "ms"},
		"serve.rejected":            {float64(rejected), "count"},
		"obs.trace_overhead_pct":    {100 * (rp.tracedMS - rp.untracedMS) / rp.untracedMS, "%"},
		"obs.span_coverage":         {coverage, "ratio"},
		"go.alloc_mb_per_session":   {allocMB, "MiB"},
		"go.gc_per_session":         {gcs, "count"},
	}
	ok := failed == 0
	if coverage < minCoverage {
		fmt.Printf("trace: layer spans cover %.1f%% of the traced session wall time, want >= %.0f%%\n", 100*coverage, 100*minCoverage)
		ok = false
	}
	sum := sha256.Sum256([]byte(rp.counts.String()))
	digest := hex.EncodeToString(sum[:])[:16]
	fmt.Printf("trace: sessions=%d service-requests=%d coverage=%.4f replay=%s\n", rp.sessions, len(svc.recs), coverage, digest)

	spans := rp.tr.snapshot()
	if err := writeJSON(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.json", name, seed)), spans); err != nil {
		return nil, nil, err
	}
	attempted := 2*rp.sessions + len(svc.recs)
	res := &result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}
	rep := &layerReport{Metrics: m, SelfMS: self, Coverage: coverage, Replay: digest, Spans: len(spans)}
	return res, rep, nil
}

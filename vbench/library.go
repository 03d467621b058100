package main

import (
	"context"
	"embed"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"vacsem"
	"vacsem/internal/blif"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/miter"
	"vacsem/internal/plan"
	"vacsem/internal/synth"
)

// libWorkload is a library workload: one client calling vacsem.ReadBLIF
// on both circuits and then vacsem.VerifyMetrics with default Options,
// over a fixed pool of pairs issued in seeded order.
type libWorkload struct {
	name string
	pool func() ([]*pair, error)
	// rate is the nominal sessions per second that sizes a run.
	rate float64
	// refMethod computes the reference values.
	refMethod vacsem.Method
	// traceRounds is how many times a traced run replays the pool.
	traceRounds int
}

var adderMed = &libWorkload{
	name: "adder-med", pool: adderMedPool, rate: 4,
	refMethod: vacsem.MethodBDD, traceRounds: 2,
}

var multSession = &libWorkload{
	name: "mult-session", pool: multSessionPool, rate: 11,
	refMethod: vacsem.MethodEnum, traceRounds: 3,
}

// adderMedPool: {MED} of the 10-bit ripple-carry adder against its
// lower-OR approximations with k = 2-6. Read back from BLIF, whose
// covers expand the generator's XOR and majority gates, these sessions
// cost what 12-13 bit adders cost built in memory. Five classes put p50
// and p90 inside a class, never on the step between two.
func adderMedPool() ([]*pair, error) {
	var pool []*pair
	for k := 2; k <= 6; k++ {
		p, err := loaPair(10, k, []string{"med"}, nil, "")
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// alsInputs holds the two ALS approximations of the 8-bit array
// multiplier, committed so that the workload does not move when the ALS
// generator does (circgen -name mult8 -approx 2 -budget 0.05).
//
//go:embed inputs/*.blif
var alsInputs embed.FS

// multSessionPool: {ER, MED, MHD} of the 8-bit array multiplier against
// its truncations with k = 1-6 and two ALS versions.
func multSessionPool() ([]*pair, error) {
	metrics := []string{"er", "med", "mhd"}
	exact := vacsem.ArrayMultiplier(8)
	var pool []*pair
	for k := 1; k <= 6; k++ {
		name := fmt.Sprintf("mult8-trunc%d", k)
		p, err := newPair(name, name, metrics, exact, vacsem.TruncatedMultiplier(8, k))
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	for s := 1; s <= 2; s++ {
		name := fmt.Sprintf("mult8-als%d", s)
		f, err := alsInputs.Open("inputs/" + name + ".blif")
		if err != nil {
			return nil, err
		}
		approx, err := vacsem.ReadBLIF(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p, err := newPair(name, name, metrics, exact, approx)
		if err != nil {
			return nil, err
		}
		pool = append(pool, p)
	}
	return pool, nil
}

// verify is one timed library request.
func verify(ctx context.Context, p *pair) ([]string, error) {
	exact, err := vacsem.ReadBLIF(strings.NewReader(p.exactBLIF))
	if err != nil {
		return nil, err
	}
	approx, err := vacsem.ReadBLIF(strings.NewReader(p.approxBLIF))
	if err != nil {
		return nil, err
	}
	sr, err := vacsem.VerifyMetrics(ctx, exact, approx, p.specs(), vacsem.Options{})
	if err != nil {
		return nil, err
	}
	return values(sr), nil
}

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func (w *libWorkload) run(ctx context.Context, cfg config) (*result, *layerReport, error) {
	pool, err := w.pool()
	if err != nil {
		return nil, nil, err
	}
	if err := attachReferences(ctx, cfg.seed, pool, w.refMethod); err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	if cfg.trace {
		return w.traced(ctx, cfg, pool, rng)
	}
	seq := sequence(rng, len(pool), requestCount(cfg.seconds, w.rate, len(pool)))
	reqs := make([]*pair, len(seq))
	for i, idx := range seq {
		reqs[i] = pool[idx]
	}
	describeLoad(reqs)
	resetPeakRSS()

	// Set-up: a warm-up pass over the pool, one session per pair.
	failed := 0
	setups := make([]float64, setupRepeats)
	for i := range setups {
		t0 := time.Now()
		for _, p := range pool {
			v, err := verify(ctx, p)
			if err != nil || !equalValues(v, p.ref) {
				failed++
			}
		}
		setups[i] = time.Since(t0).Seconds()
	}

	lat := make([]float64, 0, len(reqs))
	cpu0, t0 := selfCPU(), time.Now()
	for _, p := range reqs {
		s := time.Now()
		v, err := verify(ctx, p)
		lat = append(lat, ms(time.Since(s)))
		if err != nil || !equalValues(v, p.ref) {
			failed++
			fmt.Printf("request %s failed: values %v, want %v, err %v\n", p.name, v, p.ref, err)
		}
	}
	wall, cpu := time.Since(t0), selfCPU()-cpu0
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, nil, err
	}
	return endToEnd(len(reqs)+setupRepeats*len(pool), failed, len(reqs), wall, cpu, lat, quantile(setups, 0.5), rss), nil, nil
}

// endToEnd assembles the -trace 0 result.
func endToEnd(attempted, failed, timed int, wall, cpu time.Duration, lat []float64, setup, rss float64) *result {
	fmt.Printf("samples: timed=%d p90-tail=%d failed=%d\n", timed, timed-int(0.9*float64(timed)), failed)
	return &result{
		Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{
			"throughput_sps":     {float64(timed) / wall.Seconds(), "1/s"},
			"latency_p50_ms":     {quantile(lat, 0.5), "ms"},
			"latency_p90_ms":     {quantile(lat, 0.9), "ms"},
			"cpu_ms_per_session": {ms(cpu) / float64(timed), "ms"},
			"success_frac":       {float64(attempted-failed) / float64(attempted), "fraction"},
			"setup_s":            {setup, "s"},
			"peak_rss_mb":        {rss, "MiB"},
		},
	}
}

// replay accumulates a traced run's library-layer measurements.
type replay struct {
	tr       *tracer
	sessions int
	failed   int
	// untraced and traced session wall times, for the trace overhead.
	untracedMS, tracedMS float64
	// go runtime deltas over the untraced sessions.
	allocBytes, gcs uint64
	// plan and engine figures, summed over sessions.
	nodesBefore, nodesAfter     int
	tasksUnique, tasksRequested int
	taskMSMax, taskMSSum        float64
	// capacityMS sums workers x engine.run wall time.
	capacityMS float64
	clauses    int
	// stats sums the serial replay's counter statistics.
	stats counter.Stats
	// counts lists the serial replay's per-task counts and statistics in
	// replay order; its digest shows that two runs replayed identically.
	counts strings.Builder
}

// traced replays the pool: each session untraced through the root API,
// then traced layer by layer, then the side replay of the base miter and
// the serial replay of every task. A service probe then submits the
// pool to vacsem-serve, cold and again warm.
func (w *libWorkload) traced(ctx context.Context, cfg config, pool []*pair, rng *rand.Rand) (*result, *layerReport, error) {
	rp := &replay{tr: newTracer()}
	// One untraced warm-up session keeps one-time start-up out of the
	// layer times.
	if _, err := verify(ctx, pool[0]); err != nil {
		return nil, nil, err
	}
	for round := 0; round < w.traceRounds; round++ {
		for _, idx := range rng.Perm(len(pool)) {
			if err := rp.session(ctx, pool[idx]); err != nil {
				return nil, nil, err
			}
		}
	}
	probe := append(append([]*pair(nil), pool...), pool...)
	svc, err := serviceRun(ctx, cfg, nil, probe, 1, rp.tr)
	if err != nil {
		return nil, nil, err
	}
	return rp.report(svc, false, cfg.outDir, w.name, cfg.seed)
}

// session measures one pair through every library layer.
func (rp *replay) session(ctx context.Context, p *pair) error {
	rp.sessions++
	failed := false
	defer func() {
		if failed {
			rp.failed++
		}
	}()
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("traced %s: %s\n", p.name, fmt.Sprintf(format, args...))
	}

	// Untraced, through the root API, with Go runtime deltas.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	got, err := verify(ctx, p)
	rp.untracedMS += ms(time.Since(t0))
	runtime.ReadMemStats(&m1)
	rp.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	rp.gcs += uint64(m1.NumGC - m0.NumGC)
	if err != nil || !equalValues(got, p.ref) {
		fail("untraced values %v, want %v, err %v", got, p.ref, err)
	}

	// Traced: the calls core.VerifyMetrics makes, in its order, on the
	// engine configuration default Options produce.
	tr := rp.tr
	root := tr.start(0, "session", p.name)
	var exact, approx *vacsem.Circuit
	var perr error
	tr.timed(root, "blif.parse", p.name, func() { exact, perr = blif.Parse(strings.NewReader(p.exactBLIF)) })
	if perr == nil {
		tr.timed(root, "blif.parse", p.name, func() { approx, perr = blif.Parse(strings.NewReader(p.approxBLIF)) })
	}
	if perr != nil {
		return perr
	}
	var pl *plan.Plan
	tr.timed(root, "plan.build", p.name, func() { pl, perr = plan.Build(ctx, exact, approx, p.specs(), false) })
	if perr != nil {
		return perr
	}
	be, err := engine.Lookup("vacsem")
	if err != nil {
		return err
	}
	runID := tr.start(root, "engine.run", p.name)
	out, err := pl.Run(ctx, be, engine.Config{SharedCache: true}, nil)
	tr.end(runID)
	tr.end(root)
	rp.tracedMS += tr.duration(root)
	if err != nil {
		return err
	}
	traced := make([]string, len(out.Metrics))
	denom := new(big.Int).Lsh(big.NewInt(1), uint(pl.TotalInputs))
	for i, mo := range out.Metrics {
		traced[i] = new(big.Rat).SetFrac(mo.Count, denom).RatString()
	}
	if !equalValues(traced, got) || !equalValues(traced, p.ref) {
		fail("traced values %v, untraced %v, reference %v", traced, got, p.ref)
	}
	rp.nodesBefore += pl.BaseNodesBefore
	rp.nodesAfter += pl.BaseNodesAfter
	rp.tasksUnique += len(pl.Tasks)
	rp.tasksRequested += pl.TasksRequested
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pl.Tasks) {
		workers = len(pl.Tasks)
	}
	var maxMS, sumMS float64
	for _, r := range out.TaskResults {
		d := ms(r.Runtime)
		sumMS += d
		if d > maxMS {
			maxMS = d
		}
	}
	rp.taskMSMax += maxMS
	rp.taskMSSum += sumMS
	rp.capacityMS += float64(workers) * tr.duration(runID)

	// Side replay: the base miter and its synthesis, which plan.Build
	// runs inside its own span.
	side := tr.start(0, "side", p.name)
	var base *miter.Base
	tr.timed(side, "miter.base", p.name, func() { base, perr = miter.NewBase(exact, approx, exact.Name+"_miter") })
	if perr != nil {
		return perr
	}
	tr.timed(side, "synth.base", p.name, func() { base.Compress(synth.Compress) })
	tr.end(side)

	// Serial replay of every non-trivial task, with one session-shared
	// component cache, as the vacsem backend configures its solvers.
	rep := tr.start(0, "replay", p.name)
	cache := counter.NewCache(0, 0)
	for j, t := range pl.Tasks {
		res := out.TaskResults[j]
		if res.Trivial {
			continue
		}
		var f *cnf.Formula
		tr.timed(rep, "cnf.encode", p.name, func() { f, perr = cnf.Encode(t.Sub) })
		if perr != nil {
			return perr
		}
		rp.clauses += len(f.Clauses) + len(f.Xors)
		s := counter.New(f, counter.Config{EnableSim: true, Cache: cache, CacheOwner: int32(j) + 1})
		var cnt *big.Int
		tr.timed(rep, "counter.count", p.name, func() { cnt, perr = s.CountCtx(ctx) })
		if perr != nil {
			return perr
		}
		st := s.Stats()
		rp.stats.Add(st)
		cnt.Lsh(cnt, uint(pl.Exec.NumInputs()-f.NumEncodedInputs()))
		if cnt.Cmp(res.Count) != 0 {
			fail("task %d replay count %v, engine %v", j, cnt, res.Count)
		}
		fmt.Fprintf(&rp.counts, "%s/%d %v %d %d %d %d %d %d\n", p.name, j, cnt,
			st.Decisions, st.Propagations, st.Components, st.CacheHits, st.SimCalls, st.SimPatterns)
	}
	tr.end(rep)
	return nil
}

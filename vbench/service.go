package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"vacsem"
	"vacsem/internal/serve"
	"vacsem/internal/store"
)

// serve-store traffic: two closed-loop clients submit {ER, MED} jobs to
// vacsem-serve at its default flags. Three requests in four repeat a
// pair the store was warmed with during set-up (reads: parse, plan,
// cone-tier hits, zero decisions); the rest are first-seen pairs that
// solve and write the store.
const (
	serveClients = 2
	// serveRate is the nominal jobs per second that sizes a run.
	serveRate = 56
	// warmPerCold is the warm:cold request ratio.
	warmPerCold = 3
)

var serveMetrics = []string{"er", "med"}

// serveRefMethod computes serve-store's reference values.
const serveRefMethod = vacsem.MethodBDD

// serveWarmPool is the set-up's store contents: adders of 8-10 bits
// against lower-OR approximations with k = 2-4.
func serveWarmPool() ([]*pair, error) {
	var pool []*pair
	for n := 8; n <= 10; n++ {
		for k := 2; k <= 4; k++ {
			p, err := loaPair(n, k, serveMetrics, nil, "")
			if err != nil {
				return nil, err
			}
			p.warm = true
			pool = append(pool, p)
		}
	}
	return pool, nil
}

// coldClasses are the (width, k) classes of first-seen pairs: 8-bit
// adders, one cost class (40-60 ms a job). Each cold request is its
// class pair under a fresh seeded input permutation of both circuits: a
// new pair to the store (cone keys pin input positions) with the class's
// values and cost.
var coldClasses = [][2]int{{8, 2}, {8, 3}, {8, 4}, {8, 5}, {8, 6}}

// serveRequests builds the request sequence: n requests (a multiple of
// (warmPerCold+1) x len(coldClasses)), one in warmPerCold+1 cold, in
// seeded order.
func serveRequests(rng *rand.Rand, warm []*pair, n int) ([]*pair, []*pair, error) {
	nCold := n / (warmPerCold + 1)
	kinds := make([]bool, n) // true = cold
	for i := 0; i < nCold; i++ {
		kinds[i] = true
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	warmSeq := sequence(rng, len(warm), n-nCold)
	coldSeq := sequence(rng, len(coldClasses), nCold)
	reqs := make([]*pair, 0, n)
	var cold []*pair
	for _, isCold := range kinds {
		if !isCold {
			reqs = append(reqs, warm[warmSeq[0]])
			warmSeq = warmSeq[1:]
			continue
		}
		c := coldClasses[coldSeq[0]]
		coldSeq = coldSeq[1:]
		p, err := loaPair(c[0], c[1], serveMetrics, rng.Perm(2*c[0]), fmt.Sprintf("/p%d", len(cold)))
		if err != nil {
			return nil, nil, err
		}
		cold = append(cold, p)
		reqs = append(reqs, p)
	}
	return reqs, cold, nil
}

// serveSetups is how many times a serve-store run sets up (server start
// plus store warming); setup_s is the median.
const serveSetups = 3

func runServeStore(ctx context.Context, cfg config) (*result, *layerReport, error) {
	warm, err := serveWarmPool()
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	unit := (warmPerCold + 1) * len(coldClasses)
	reqs, cold, err := serveRequests(rng, warm, requestCount(cfg.seconds, serveRate, unit))
	if err != nil {
		return nil, nil, err
	}
	if err := attachReferences(ctx, cfg.seed, append(append([]*pair(nil), warm...), cold...), serveRefMethod); err != nil {
		return nil, nil, err
	}
	// A warm request must be served by the store for every task that is
	// not trivial; the library reports which tasks those are.
	for _, p := range warm {
		sr, err := vacsem.VerifyMetrics(ctx, p.exact, p.approx, p.specs(), vacsem.Options{})
		if err != nil {
			return nil, nil, err
		}
		trivial := map[int]bool{}
		for _, r := range sr.Results {
			for _, s := range r.Subs {
				if s.Trivial {
					trivial[s.Task] = true
				}
			}
		}
		p.nonTrivial = sr.TasksUnique - len(trivial)
	}
	describeLoad(reqs)

	if cfg.trace {
		rp := &replay{tr: newTracer()}
		for _, idx := range rng.Perm(len(warm)) {
			if err := rp.session(ctx, warm[idx]); err != nil {
				return nil, nil, err
			}
		}
		svc, err := serviceRun(ctx, cfg, warm, reqs, serveClients, rp.tr)
		if err != nil {
			return nil, nil, err
		}
		return rp.report(svc, true, cfg.outDir, "serve-store", cfg.seed)
	}

	failed := 0
	setups := make([]float64, serveSetups)
	var svc *service
	for i := range setups {
		if svc != nil {
			if err := svc.close(); err != nil {
				return nil, nil, err
			}
		}
		var bad int
		svc, setups[i], bad, err = startService(ctx, cfg, warm)
		if err != nil {
			return nil, nil, err
		}
		failed += bad
	}
	defer svc.close()
	cpu0, err := procCPU(svc.pid())
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	recs := svc.issue(ctx, reqs, serveClients, nil)
	wall := time.Since(t0)
	cpu1, err := procCPU(svc.pid())
	if err != nil {
		return nil, nil, err
	}
	rss, err := peakRSSMB(strconv.Itoa(svc.pid()))
	if err != nil {
		return nil, nil, err
	}
	if err := svc.close(); err != nil {
		return nil, nil, err
	}
	lat := make([]float64, len(recs))
	for i, r := range recs {
		lat[i] = ms(r.latency)
		if !r.ok {
			failed++
		}
	}
	return endToEnd(len(recs)+serveSetups*len(warm), failed, len(recs), wall, cpu1-cpu0, lat, quantile(setups, 0.5), rss), nil, nil
}

// service is a running vacsem-serve process and a client for it.
type service struct {
	cmd     *exec.Cmd
	stdout  chan struct{} // closed once the server's stdout is drained
	base    string
	hc      *http.Client
	stopped bool
}

// startService starts vacsem-serve on an ephemeral port (its other
// flags at their defaults), takes readiness from its "listening on"
// line, and warms its store by submitting the given pairs in order. It
// returns the set-up time and the number of warming jobs that failed.
func startService(ctx context.Context, cfg config, warm []*pair) (*service, float64, int, error) {
	t0 := time.Now()
	cmd := exec.Command(cfg.server, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, 0, fmt.Errorf("start vacsem-serve: %w", err)
	}
	s := &service{
		cmd: cmd, stdout: make(chan struct{}),
		hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true}},
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.stdout)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addr <- a:
				default: // printed once; never block the drain
				}
			}
		}
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.stdout:
		s.close()
		return nil, 0, 0, errors.New("vacsem-serve exited before listening")
	case <-ctx.Done():
		s.close()
		return nil, 0, 0, fmt.Errorf("vacsem-serve did not start listening: %w", ctx.Err())
	}
	failed := 0
	for _, p := range warm {
		if r := s.job(ctx, p, nil, 0); r.err != nil || !equalValues(r.values(), p.ref) {
			failed++
			fmt.Printf("warming %s failed: %v\n", p.name, r.err)
		}
	}
	return s, time.Since(t0).Seconds(), failed, nil
}

func (s *service) pid() int { return s.cmd.Process.Pid }

// close stops the server gracefully (SIGTERM drains and exits) and waits
// for it. No job is in flight by then, so a server still running after
// ten seconds is stuck and is killed.
func (s *service) close() error {
	if s.stopped {
		return nil
	}
	s.stopped = true
	s.hc.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.stdout:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.stdout
	}
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("vacsem-serve: %w", err)
	}
	return nil
}

// jobRecord is one request's client-side view.
type jobRecord struct {
	latency  time.Duration
	status   serve.JobStatus
	rejected bool
	err      error
	ok       bool
}

func (r *jobRecord) values() []string {
	if r.status.Result == nil {
		return nil
	}
	out := make([]string, len(r.status.Result.Metrics))
	for i, m := range r.status.Result.Metrics {
		out[i] = m.Value
	}
	return out
}

// issue runs reqs from the given number of closed-loop clients and
// checks every result: the reference values bit for bit and, for a
// warm pair, zero decisions with every non-trivial task a store hit.
func (s *service) issue(ctx context.Context, reqs []*pair, clients int, tr *tracer) []jobRecord {
	recs := make([]jobRecord, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				p := reqs[i]
				r := s.job(ctx, p, tr, i)
				switch {
				case r.err != nil:
				case !equalValues(r.values(), p.ref):
					r.err = fmt.Errorf("values %v, want %v", r.values(), p.ref)
				case p.warm && (r.status.Result.Decisions != 0 || r.status.Result.StoreConeHits != p.nonTrivial):
					r.err = fmt.Errorf("warm request made %d decisions, %d store hits for %d non-trivial tasks",
						r.status.Result.Decisions, r.status.Result.StoreConeHits, p.nonTrivial)
				default:
					r.ok = true
				}
				if r.err != nil {
					fmt.Printf("request %d (%s) failed: %v\n", i, p.name, r.err)
				}
				recs[i] = r
			}
		}()
	}
	wg.Wait()
	return recs
}

// job submits one pair, awaits it on its event stream (which ends once
// the job has finished) and fetches its result. With a tracer, the three
// calls are spans under one request span.
func (s *service) job(ctx context.Context, p *pair, tr *tracer, i int) (r jobRecord) {
	start := time.Now()
	defer func() { r.latency = time.Since(start) }()
	req := fmt.Sprintf("%s#%d", p.name, i)
	step := func(parent int, name string, fn func() error) error {
		if tr == nil {
			return fn()
		}
		id := tr.start(parent, name, req)
		defer tr.end(id)
		return fn()
	}
	root := 0
	if tr != nil {
		root = tr.start(0, "request", req)
		defer tr.end(root)
	}

	var sub serve.SubmitResponse
	r.err = step(root, "http.submit", func() error {
		resp, err := s.do(ctx, http.MethodPost, "/v1/verify", p.body)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			r.rejected = true
		}
		if resp.StatusCode != http.StatusAccepted {
			msg, _ := io.ReadAll(resp.Body)
			return fmt.Errorf("submit: %s: %s", resp.Status, bytes.TrimSpace(msg))
		}
		return json.NewDecoder(resp.Body).Decode(&sub)
	})
	if r.err != nil {
		return r
	}
	r.err = step(root, "http.await", func() error {
		resp, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+sub.JobID+"/events", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	})
	if r.err != nil {
		return r
	}
	r.err = step(root, "http.fetch", func() error {
		resp, err := s.do(ctx, http.MethodGet, "/v1/jobs/"+sub.JobID, nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&r.status); err != nil {
			return err
		}
		if r.status.State != serve.StateDone || r.status.Result == nil {
			return fmt.Errorf("job %s: state %s: %s", sub.JobID, r.status.State, r.status.Error)
		}
		return nil
	})
	return r
}

func (s *service) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return s.hc.Do(req)
}

// get decodes a JSON GET response.
func (s *service) get(ctx context.Context, path string, v any) error {
	resp, err := s.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memStatLine matches the runtime.MemStats lines of the server's
// /debug/pprof/allocs?debug=1 page.
var memStatLine = regexp.MustCompile(`(?m)^# (TotalAlloc|NumGC) = (\d+)$`)

// runtimeStats reads the server's cumulative allocation and GC count.
func (s *service) runtimeStats(ctx context.Context) (alloc, gcs uint64, err error) {
	resp, err := s.do(ctx, http.MethodGet, "/debug/pprof/allocs?debug=1", nil)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	page, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, m := range memStatLine.FindAllSubmatch(page, -1) {
		v, _ := strconv.ParseUint(string(m[2]), 10, 64)
		if string(m[1]) == "TotalAlloc" {
			alloc = v
		} else {
			gcs = v
		}
		found++
	}
	if found != 2 {
		return 0, 0, errors.New("server runtime statistics not found on /debug/pprof/allocs")
	}
	return alloc, gcs, nil
}

// serviceStats is a traced service run's measurements.
type serviceStats struct {
	recs          []jobRecord
	before, after store.Stats
	// allocBytes and gcs are the server's Go runtime deltas.
	allocBytes, gcs uint64
}

// serviceRun starts vacsem-serve, warms it with warm, and issues reqs
// from the given number of clients with client-side spans, recording
// the store's and the server runtime's deltas around them.
func serviceRun(ctx context.Context, cfg config, warm, reqs []*pair, clients int, tr *tracer) (*serviceStats, error) {
	svc, _, bad, err := startService(ctx, cfg, warm)
	if err != nil {
		return nil, err
	}
	defer svc.close()
	if bad != 0 {
		return nil, fmt.Errorf("%d warming jobs failed", bad)
	}
	st := &serviceStats{}
	if err := svc.get(ctx, "/v1/store", &st.before); err != nil {
		return nil, err
	}
	a0, g0, err := svc.runtimeStats(ctx)
	if err != nil {
		return nil, err
	}
	st.recs = svc.issue(ctx, reqs, clients, tr)
	a1, g1, err := svc.runtimeStats(ctx)
	if err != nil {
		return nil, err
	}
	st.allocBytes, st.gcs = a1-a0, g1-g0
	if err := svc.get(ctx, "/v1/store", &st.after); err != nil {
		return nil, err
	}
	return st, svc.close()
}

// Package plan compiles verification sessions: it turns a request for
// one or more average-error metrics over a circuit pair into a
// deduplicated list of single-output counting tasks that one engine
// backend executes in a single run.
//
// Every metric of Section II reduces to weighted one-counts of
// deviation bits built over the same base miter (both circuit copies
// instantiated over shared inputs). The plan layer therefore
//
//  1. builds and synthesizes that base once per session,
//  2. attaches one metric head per requested metric (XOR-reduce for ER,
//     per-bit XORs for MHD, the |y - y'| subtractor for MED, subtractor
//     plus comparator for the threshold probability),
//  3. synthesizes the combined circuit (base plus every head) in one
//     pass, then cuts one logic cone per unique output and deduplicates
//     structurally identical cones by a canonical key — both within a
//     metric (repeated deviation bits) and across metrics (e.g. MED's low
//     bit compressing to the same XOR as MHD's bit 0),
//  4. assembles each metric's outcome from its tasks' (possibly shared)
//     counts.
//
// Counts are function-determined, so deduplication never changes a
// metric value: a session over {ER, MED, MHD} is bit-identical to three
// standalone runs at any worker count.
package plan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/miter"
	"vacsem/internal/obs"
	"vacsem/internal/synth"
)

// Session-level metrics: how much work the dedup removed.
var (
	mPlans        = obs.Default.Counter("plan.sessions")
	mTasks        = obs.Default.Counter("plan.tasks")
	mTasksDeduped = obs.Default.Counter("plan.tasks_deduped")
)

// Kind selects an average-error metric.
type Kind int

const (
	// ER is the error rate (Eq. 2).
	ER Kind = iota
	// MED is the mean error distance (Eq. 4).
	MED
	// MHD is the mean Hamming distance.
	MHD
	// ThresholdProb is P(|int(y) - int(y')| > t), the MACACO-style
	// cumulative metric; Spec.Threshold carries t.
	ThresholdProb
)

// Spec requests one metric in a session.
type Spec struct {
	Kind Kind
	// Threshold is the deviation threshold t of ThresholdProb; ignored
	// by the other kinds.
	Threshold *big.Int
}

// MetricName is the display name of the requested metric, as it appears
// in Result.Metric, trace spans and progress events ("ER", "MED",
// "MHD", "P(dev>t)").
func (s Spec) MetricName() string {
	switch s.Kind {
	case ER:
		return "ER"
	case MED:
		return "MED"
	case MHD:
		return "MHD"
	case ThresholdProb:
		return fmt.Sprintf("P(dev>%v)", s.Threshold)
	default:
		return fmt.Sprintf("metric(%d)", int(s.Kind))
	}
}

// Metric is one compiled metric of a plan: its output bits, their
// weights, and the session task computing each bit's count.
type Metric struct {
	// Name is Spec.MetricName() (or the caller's name for FromMiter).
	Name string
	// Outputs names the metric's deviation bits ("f1", "d0", ...).
	Outputs []string
	// Weights holds one weight per output bit; the metric numerator is
	// sum_k Weights[k] * count(task TaskOf[k]). The plan owns the
	// slice (defensive copies of any caller-supplied weights).
	Weights []*big.Int
	// TaskOf maps each output bit to its session task index.
	TaskOf []int
	// Owner marks, per output bit, whether this bit is its task's
	// representative (the first bit across the session that produced
	// the task). Exactly one bit per task owns it; owners carry the
	// task's runtime and counter statistics in results, so per-metric
	// stats sum to the session total without double counting.
	Owner []bool
}

// Plan is a compiled verification session, ready to run on a backend.
type Plan struct {
	// Session labels the plan in spans and results ("ER+MED+MHD").
	Session string
	// Exec is the combined session miter: one primary output per task,
	// in task order (engine.Request.Miter).
	Exec *circuit.Circuit
	// Tasks is the deduplicated task list.
	Tasks []engine.CountTask
	// Metrics holds one compiled metric per requested spec, in order.
	Metrics []Metric
	// TotalInputs is the shared input count (the count denominator is
	// 2^TotalInputs).
	TotalInputs int
	// TasksRequested counts metric output bits before deduplication.
	TasksRequested int
	// BaseNodesBefore/After record the shared base miter's gate count
	// around its (single) synthesis pass; equal when synthesis is off
	// or the plan came from a custom miter.
	BaseNodesBefore, BaseNodesAfter int
}

// TasksDeduped reports how many requested output bits were satisfied by
// another bit's task.
func (p *Plan) TasksDeduped() int { return p.TasksRequested - len(p.Tasks) }

// Build compiles a session over a circuit pair: one shared base miter
// (built and synthesized once), one metric head per spec, and a
// deduplicated task list.
func Build(ctx context.Context, exact, approx *circuit.Circuit, specs []Spec, noSynth bool) (*Plan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("plan: no metrics requested")
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Kind == ThresholdProb {
			if err := miter.CheckThreshold(s.Threshold); err != nil {
				return nil, err
			}
		}
		names[i] = s.MetricName()
	}
	session := strings.Join(names, "+")

	tr := obs.Active()
	var span obs.SpanID
	if tr != nil {
		span = tr.StartSpan(obs.SpanFrom(ctx), "plan", obs.Fields{
			"session": session, "metrics": len(specs),
		})
	}

	b, err := miter.NewBase(exact, approx, exact.Name+"_miter")
	if err != nil {
		if tr != nil {
			tr.EndSpan(span, "plan", obs.Fields{"error": err.Error()})
		}
		return nil, err
	}
	p := &Plan{
		Session:         session,
		TotalInputs:     b.Circ.NumInputs(),
		BaseNodesBefore: b.Circ.NumGates(),
	}
	if !noSynth {
		b = b.Compress(synth.Compress)
	}
	p.BaseNodesAfter = b.Circ.NumGates()

	c, err := p.attachHeads(b, specs, names)
	if err != nil {
		if tr != nil {
			tr.EndSpan(span, "plan", obs.Fields{"error": err.Error()})
		}
		return nil, err
	}
	p.compile(c, noSynth)
	p.finish(tr, span)
	return p, nil
}

// attachHeads attaches one metric head per spec to the base and
// registers each head's bits as outputs of the combined circuit, one
// output per requested bit in metric order. It fills p.Metrics except
// TaskOf and Owner, and returns the combined circuit (the base's, grown).
func (p *Plan) attachHeads(b *miter.Base, specs []Spec, names []string) (*circuit.Circuit, error) {
	c := b.Circ
	p.Metrics = make([]Metric, len(specs))
	for i, s := range specs {
		m := Metric{Name: names[i]}
		switch s.Kind {
		case ER:
			c.AddOutput(miter.ERHead(c, b.YE, b.YA), "f1")
			m.Outputs = []string{"f1"}
			m.Weights = []*big.Int{big.NewInt(1)}
		case MHD:
			for j, d := range miter.HDHead(c, b.YE, b.YA) {
				name := fmt.Sprintf("d%d", j)
				c.AddOutput(d, name)
				m.Outputs = append(m.Outputs, name)
				m.Weights = append(m.Weights, big.NewInt(1))
			}
		case MED:
			for j, id := range miter.MEDHead(c, b.YE, b.YA) {
				name := fmt.Sprintf("f%d", j+1)
				c.AddOutput(id, name)
				m.Outputs = append(m.Outputs, name)
				m.Weights = append(m.Weights, new(big.Int).Lsh(big.NewInt(1), uint(j)))
			}
		case ThresholdProb:
			c.AddOutput(miter.ThresholdHead(c, b.YE, b.YA, s.Threshold), "f1")
			m.Outputs = []string{"f1"}
			m.Weights = []*big.Int{big.NewInt(1)}
		default:
			return nil, fmt.Errorf("plan: unknown metric kind %d", int(s.Kind))
		}
		p.Metrics[i] = m
	}
	return c, nil
}

// FromMiter compiles a session from a caller-supplied deviation miter:
// one metric whose value is sum_j weights[j] * P(output_j = 1). The
// miter goes through compile's single synthesis pass, and its output
// cones are deduplicated like any other session. Neither the caller's
// circuit nor its weights are retained or modified.
func FromMiter(ctx context.Context, name string, m *circuit.Circuit, weights []*big.Int, noSynth bool) (*Plan, error) {
	if len(weights) != m.NumOutputs() {
		return nil, fmt.Errorf("plan: %d weights for %d outputs", len(weights), m.NumOutputs())
	}
	tr := obs.Active()
	var span obs.SpanID
	if tr != nil {
		span = tr.StartSpan(obs.SpanFrom(ctx), "plan", obs.Fields{
			"session": name, "metrics": 1,
		})
	}
	met := Metric{Name: name}
	for j := 0; j < m.NumOutputs(); j++ {
		met.Outputs = append(met.Outputs, m.OutputName(j))
		met.Weights = append(met.Weights, new(big.Int).Set(weights[j]))
	}
	p := &Plan{
		Session:         name,
		TotalInputs:     m.NumInputs(),
		BaseNodesBefore: m.NumGates(),
		Metrics:         []Metric{met},
	}
	work := m
	if noSynth {
		work = m.Clone() // compile re-purposes the outputs; keep the caller's copy intact
	}
	p.compile(work, noSynth)
	// Every requested output maps to a task root, so the execution miter
	// holds exactly the compressed logic of all outputs.
	p.BaseNodesAfter = p.Exec.NumGates()
	p.finish(tr, span)
	return p, nil
}

// finish records the compiled plan in the metrics registry and closes
// its trace span.
func (p *Plan) finish(tr *obs.Tracer, span obs.SpanID) {
	mPlans.Inc()
	mTasks.Add(uint64(len(p.Tasks)))
	mTasksDeduped.Add(uint64(p.TasksDeduped()))
	if tr != nil {
		tr.EndSpan(span, "plan", obs.Fields{
			"tasks_requested": p.TasksRequested, "tasks": len(p.Tasks),
			"tasks_deduped":     p.TasksDeduped(),
			"base_nodes_before": p.BaseNodesBefore, "base_nodes_after": p.BaseNodesAfter,
		})
	}
}

// compile synthesizes c (the session's requested bits as outputs, in
// metric order) in one pass, cuts one cone per unique task from the
// result, and re-purposes the compressed circuit as the combined
// execution miter with one output per task. The per-metric
// Outputs/Weights must already be set; TaskOf and Owner are filled here.
//
// Dedup works on the compressed circuit. Bits whose roots are one node
// share a task outright (hash-consing already merged their logic); any
// other bit is keyed from its root, and a cone is extracted only for a
// key not seen before. Synthesis preserves every output's function, so
// no bit's count changes. A cone that shares nodes with another head may
// order its nodes differently than compressing it alone would; that can
// only change its key (a cone-store miss), never its count.
func (p *Plan) compile(c *circuit.Circuit, noSynth bool) {
	type task struct {
		ct   engine.CountTask
		root int // node id in the compressed circuit
		reqs []int
	}

	nReq := 0
	for i := range p.Metrics {
		nReq += len(p.Metrics[i].Outputs)
	}
	p.TasksRequested = nReq

	comp := c
	if !noSynth {
		comp = synth.Compress(c)
	}
	raw := newCones(c)
	keys := newCones(comp)
	var tasks []*task
	byRoot := make(map[int]int)
	byKey := make(map[string]int)
	ri := 0
	for i := range p.Metrics {
		for k := range p.Metrics[i].Outputs {
			root := comp.Outputs[ri]
			ti, ok := byRoot[root]
			if !ok {
				key, keyInputs := keys.key(root)
				if ti, ok = byKey[key]; !ok {
					label := p.Metrics[i].Name + "/" + p.Metrics[i].Outputs[k]
					sub, _ := comp.ExtractCone(ri)
					sub.Name = c.Name + "_" + label
					ti = len(tasks)
					byKey[key] = ti
					tasks = append(tasks, &task{
						ct: engine.CountTask{
							Sub: sub, Label: label,
							Key: key, KeyInputs: keyInputs,
							NodesBefore: raw.mark(c.Outputs[ri]),
							NodesAfter:  sub.NumGates(),
						},
						root: root,
					})
				}
				byRoot[root] = ti
			}
			tasks[ti].reqs = append(tasks[ti].reqs, ri)
			ri++
		}
	}

	// Re-purpose comp as the execution miter: one output per unique task.
	comp.ClearOutputs()
	taskOf := make([]int, nReq)
	owner := make([]int, len(tasks))
	for ti, t := range tasks {
		comp.AddOutput(t.root, t.ct.Label)
		own := t.reqs[0]
		for _, r := range t.reqs {
			taskOf[r] = ti
			if r < own {
				own = r
			}
		}
		owner[ti] = own
	}
	p.Exec = comp
	p.Tasks = make([]engine.CountTask, len(tasks))
	for ti, t := range tasks {
		p.Tasks[ti] = t.ct
	}
	ri = 0
	for i := range p.Metrics {
		m := &p.Metrics[i]
		m.TaskOf = make([]int, len(m.Outputs))
		m.Owner = make([]bool, len(m.Outputs))
		for k := range m.Outputs {
			m.TaskOf[k] = taskOf[ri]
			m.Owner[k] = owner[taskOf[ri]] == ri
			ri++
		}
	}
}

// cones walks the logic cones of one circuit, reusing its scratch across
// roots: each walk stamps the cone's nodes with a fresh epoch, so no
// per-root mark slice is allocated or cleared.
type cones struct {
	c *circuit.Circuit
	// inputPos maps an input's node id to its position in the session's
	// shared input list (its index in c.Inputs).
	inputPos []int
	stamp    []uint32
	epoch    uint32
	stack    []int
	rank     []int
	buf      []byte
}

func newCones(c *circuit.Circuit) *cones {
	w := &cones{
		c:        c,
		inputPos: make([]int, len(c.Nodes)),
		stamp:    make([]uint32, len(c.Nodes)),
		rank:     make([]int, len(c.Nodes)),
	}
	for i, id := range c.Inputs {
		w.inputPos[id] = i
	}
	return w
}

// mark stamps the transitive fanin of root (root included) with a fresh
// epoch and returns the number of gates it holds, counted as
// circuit.NumGates counts them.
func (w *cones) mark(root int) (gates int) {
	w.epoch++
	w.stack = append(w.stack[:0], root)
	for len(w.stack) > 0 {
		id := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		if w.stamp[id] == w.epoch {
			continue
		}
		w.stamp[id] = w.epoch
		nd := &w.c.Nodes[id]
		if nd.Kind.IsGate() && nd.Kind != circuit.Buf {
			gates++
		}
		w.stack = append(w.stack, nd.Fanins...)
	}
	return gates
}

// key serializes the logic cone of root into a canonical structural key.
// Two cones get the same key iff they compute the same node structure
// over the same session inputs:
//
//   - only nodes reachable from root are keyed (dangling gates or
//     inputs left behind by synthesis cannot differ the key),
//   - nodes are identified by their dense rank in id order (ids are
//     topological, so isomorphic cones rank identically),
//   - inputs are identified by their position in the session's shared
//     input list, not by name or local id,
//   - names appear nowhere.
//
// The key is exact — no hashing — so equal keys imply isomorphic cones
// and therefore equal counts; dedup is sound by construction. That same
// property makes the key safe as a *cross-run* content address (the
// store tier of internal/store): it mentions nothing session-specific
// beyond shared-input positions, which isomorphic sessions reproduce.
//
// inputs reports how many of the session's inputs the cone actually
// reaches — the cone's own input space is 2^inputs, which is the space
// the store normalizes counts to (unreachable inputs are free and scale
// any count by an exact power of two).
func (w *cones) key(root int) (key string, inputs int) {
	w.mark(root)
	buf := w.buf[:0]
	next := 0
	// Fanins precede their users, so the cone lies within ids 0..root.
	for id := 0; id <= root; id++ {
		if w.stamp[id] != w.epoch {
			continue
		}
		w.rank[id] = next
		next++
		nd := &w.c.Nodes[id]
		buf = append(buf, byte(nd.Kind))
		if nd.Kind == circuit.Input {
			inputs++
			buf = binary.AppendUvarint(buf, uint64(w.inputPos[id]))
			continue
		}
		for _, f := range nd.Fanins {
			buf = binary.AppendUvarint(buf, uint64(w.rank[f]))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(w.rank[root]))
	w.buf = buf
	return string(buf), inputs
}

// ProgressEvent reports the completion of one metric output bit. When
// several bits share one task, each gets an event as the task
// completes; only the owning bit carries the task's runtime and stats
// (the others are flagged Shared), so per-metric event stats sum to the
// session totals.
type ProgressEvent struct {
	Metric  string
	Backend string
	// Index is the bit's output index within its metric; Output its name.
	Index  int
	Output string
	Count  *big.Int
	Weight *big.Int
	// Done counts the metric's completed bits so far (including this
	// one); Total is the metric's bit count.
	Done, Total int
	// SessionDone counts completed unique tasks across the whole
	// session; SessionTotal is the session's task count.
	SessionDone, SessionTotal int
	// Shared marks a bit whose count came from a task owned by another
	// bit (deduplicated work).
	Shared  bool
	Runtime time.Duration
	Stats   counter.Stats
	Trivial bool
	// Approx marks an (ε, δ)-estimated count (the approx backend).
	Approx bool
	// FromStore marks a count served by the cross-request cone store
	// rather than computed in this run.
	FromStore bool
	// RunID identifies the verification run the event belongs to (0 when
	// the caller did not allocate one); TUs is the event time in
	// microseconds on the process-monotonic obs.SinceStart clock. Both
	// are additive — existing consumers of the JSON form see the same
	// keys as before plus these two.
	RunID uint64
	TUs   int64
}

// ProgressFunc observes per-bit completion events.
type ProgressFunc func(ProgressEvent)

// SubResult reports one metric output bit. Count is always non-nil.
type SubResult struct {
	Output      string
	Count       *big.Int // patterns (over all 2^I inputs) setting the bit
	Weight      *big.Int
	NodesBefore int
	NodesAfter  int // after synthesis
	Runtime     time.Duration
	Stats       counter.Stats
	Trivial     bool // solved by constant propagation alone
	// Shared marks a bit whose count was produced by a task owned by
	// another bit of the session (possibly of a different metric); its
	// Runtime and Stats are zero — the owner reports them — so summing
	// Stats over any set of Subs never double-counts work.
	Shared bool
	// Task is the session task index that produced Count.
	Task int
	// Approx marks a Count estimated by XOR streamlining rather than
	// counted exactly; Epsilon and Delta are then the estimate's
	// tolerance and failure probability (Count is within a (1+Epsilon)
	// factor of the exact count with probability 1-Delta). Shared bits
	// carry the same flags as their owning task — the count itself is
	// approximate no matter which bit reports it.
	Approx         bool
	Epsilon, Delta float64
	// BestEffort marks an approx count whose round schedule was cut
	// short by the deadline (Delta is the widened failure probability).
	BestEffort bool
	// FromStore marks a count served by the cross-request cone store
	// (engine.TaskResult.FromStore): no solver ran for it in this
	// session. Shared bits inherit the flag from their owning task.
	FromStore bool
	// SupportBefore and SupportAfter are the approx sampling-set sizes
	// around independent-support minimization; HashDensity is the mean
	// density of the hash rows drawn. Zero for exact backends.
	SupportBefore, SupportAfter int
	HashDensity                 float64
}

// MetricOutcome is one metric's assembled result.
type MetricOutcome struct {
	Name  string
	Count *big.Int // weighted numerator: sum_k Weights[k] * count_k
	Subs  []SubResult
	// Stats aggregates the counter statistics of the tasks this metric
	// owns; summing over all metrics of a session gives the session
	// totals exactly once.
	Stats counter.Stats
}

// Outcome is a completed session.
type Outcome struct {
	Metrics []MetricOutcome
	// TaskResults are the raw per-task results, indexed like Plan.Tasks.
	TaskResults []engine.TaskResult
}

// Run executes the plan on a backend. Progress events are derived from
// the backend's per-task events: each task completion fans out to every
// metric bit it satisfies, in session order. Backends serialize their
// progress callbacks, so the adapter's counters need no locking.
func (p *Plan) Run(ctx context.Context, be engine.Backend, cfg engine.Config, progress ProgressFunc) (*Outcome, error) {
	req := &engine.Request{
		Session: p.Session,
		Miter:   p.Exec,
		Tasks:   p.Tasks,
		Config:  cfg,
	}
	// The adapter is also installed when the live stream hub has
	// subscribers, so an introspection client sees per-bit progress even
	// when the caller passed no callback.
	if progress != nil || obs.Stream.Active() {
		runID := obs.RunFrom(ctx)
		refs := p.taskRefs()
		metricDone := make([]int, len(p.Metrics))
		req.Progress = func(te engine.TaskEvent) {
			for _, r := range refs[te.Index] {
				m := &p.Metrics[r.metric]
				metricDone[r.metric]++
				ev := ProgressEvent{
					Metric: m.Name, Backend: te.Backend,
					Index: r.output, Output: m.Outputs[r.output],
					Count: te.Count, Weight: m.Weights[r.output],
					Done: metricDone[r.metric], Total: len(m.Outputs),
					SessionDone: te.Done, SessionTotal: te.Total,
					Shared:    !m.Owner[r.output],
					Trivial:   te.Trivial,
					Approx:    te.Approx,
					FromStore: te.FromStore,
					RunID:     runID,
					TUs:       obs.SinceStart().Microseconds(),
				}
				if m.Owner[r.output] {
					ev.Runtime, ev.Stats = te.Runtime, te.Stats
				}
				if progress != nil {
					progress(ev)
				}
				if obs.Stream.Active() {
					obs.Stream.Publish("progress", obs.Fields{
						"run_id": runID, "metric": ev.Metric, "output": ev.Output,
						"count": ev.Count.String(), "done": ev.Done, "total": ev.Total,
						"session_done": ev.SessionDone, "session_total": ev.SessionTotal,
						"shared": ev.Shared, "trivial": ev.Trivial, "approx": ev.Approx,
						"from_store": ev.FromStore,
					})
				}
			}
		}
	}
	results, err := be.Execute(ctx, req)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Metrics:     make([]MetricOutcome, len(p.Metrics)),
		TaskResults: results,
	}
	var weighted big.Int
	for mi := range p.Metrics {
		m := &p.Metrics[mi]
		mo := MetricOutcome{
			Name:  m.Name,
			Count: new(big.Int),
			Subs:  make([]SubResult, len(m.Outputs)),
		}
		for k, ti := range m.TaskOf {
			res := &results[ti]
			sub := SubResult{
				Output:        m.Outputs[k],
				Count:         new(big.Int).Set(res.Count),
				Weight:        new(big.Int).Set(m.Weights[k]),
				NodesBefore:   p.Tasks[ti].NodesBefore,
				NodesAfter:    p.Tasks[ti].NodesAfter,
				Trivial:       res.Trivial,
				Shared:        !m.Owner[k],
				Task:          ti,
				Approx:        res.Approx,
				Epsilon:       res.Epsilon,
				Delta:         res.Delta,
				BestEffort:    res.BestEffort,
				FromStore:     res.FromStore,
				SupportBefore: res.SupportBefore,
				SupportAfter:  res.SupportAfter,
				HashDensity:   res.HashDensity,
			}
			if m.Owner[k] {
				sub.Runtime = res.Runtime
				sub.Stats = res.Stats
				mo.Stats.Add(res.Stats)
			}
			mo.Subs[k] = sub
			weighted.Mul(res.Count, m.Weights[k])
			mo.Count.Add(mo.Count, &weighted)
		}
		out.Metrics[mi] = mo
	}
	return out, nil
}

type ref struct{ metric, output int }

// taskRefs lists, per task, the (metric, output) bits it satisfies, in
// session order (the owner first).
func (p *Plan) taskRefs() [][]ref {
	refs := make([][]ref, len(p.Tasks))
	for mi := range p.Metrics {
		for k, ti := range p.Metrics[mi].TaskOf {
			refs[ti] = append(refs[ti], ref{metric: mi, output: k})
		}
	}
	return refs
}

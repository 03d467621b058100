package plan

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"sort"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/engine"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/synth"
)

// referenceBuild compiles a session the way the plan layer did before it
// compressed the session circuit in one pass: the same base and heads,
// then referenceCompile. It keeps the old per-cone path alive as an
// oracle for the single-pass compile.
func referenceBuild(t *testing.T, exact, approx *circuit.Circuit, specs []Spec) *Plan {
	t.Helper()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.MetricName()
	}
	b, err := miter.NewBase(exact, approx, exact.Name+"_miter")
	if err != nil {
		t.Fatal(err)
	}
	p := &Plan{TotalInputs: b.Circ.NumInputs()}
	b = b.Compress(synth.Compress)
	c, err := p.attachHeads(b, specs, names)
	if err != nil {
		t.Fatal(err)
	}
	p.referenceCompile(c)
	return p
}

// referenceCompile is the per-cone compile: extract each requested bit's
// raw cone, dedup raw cones by key, compress each unique one, and dedup
// again on the compressed keys. c stays uncompressed and becomes Exec.
func (p *Plan) referenceCompile(c *circuit.Circuit) {
	type group struct {
		cone     *circuit.Circuit
		inputPos []int
		root     int
		label    string
		reqs     []int
	}
	nReq := 0
	for i := range p.Metrics {
		nReq += len(p.Metrics[i].Outputs)
	}
	p.TasksRequested = nReq

	var groups []*group
	rawKey := make(map[string]int)
	ri := 0
	for i := range p.Metrics {
		for k := range p.Metrics[i].Outputs {
			cone, old2new := c.ExtractCone(ri)
			pos := referenceInputPositions(c, old2new)
			key, _ := referenceConeKey(cone, pos)
			gi, ok := rawKey[key]
			if !ok {
				gi = len(groups)
				rawKey[key] = gi
				groups = append(groups, &group{
					cone: cone, inputPos: pos, root: c.Outputs[ri],
					label: p.Metrics[i].Name + "/" + p.Metrics[i].Outputs[k],
				})
			}
			groups[gi].reqs = append(groups[gi].reqs, ri)
			ri++
		}
	}

	type task struct {
		ct   engine.CountTask
		root int
		reqs []int
	}
	var tasks []*task
	compKey := make(map[string]int)
	for _, g := range groups {
		comp := synth.Compress(g.cone)
		key, keyInputs := referenceConeKey(comp, g.inputPos)
		ti, ok := compKey[key]
		if !ok {
			ti = len(tasks)
			compKey[key] = ti
			tasks = append(tasks, &task{
				ct: engine.CountTask{
					Sub: comp, Label: g.label, Key: key, KeyInputs: keyInputs,
					NodesBefore: g.cone.NumGates(), NodesAfter: comp.NumGates(),
				},
				root: g.root,
			})
		}
		tasks[ti].reqs = append(tasks[ti].reqs, g.reqs...)
	}

	c.ClearOutputs()
	taskOf := make([]int, nReq)
	owner := make([]int, len(tasks))
	for ti, t := range tasks {
		c.AddOutput(t.root, t.ct.Label)
		own := t.reqs[0]
		for _, r := range t.reqs {
			taskOf[r] = ti
			own = min(own, r)
		}
		owner[ti] = own
		p.Tasks = append(p.Tasks, t.ct)
	}
	p.Exec = c
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

// referenceInputPositions maps an extracted cone's inputs (in order) to
// their positions in c's input list.
func referenceInputPositions(c *circuit.Circuit, old2new []int) []int {
	var pos []int
	for pi, id := range c.Inputs {
		if old2new[id] >= 0 {
			pos = append(pos, pi)
		}
	}
	return pos
}

// referenceConeKey keys a single-output cone whose i-th input sits at
// session position inputPos[i].
func referenceConeKey(cone *circuit.Circuit, inputPos []int) (string, int) {
	w := newCones(cone)
	for i, id := range cone.Inputs {
		w.inputPos[id] = inputPos[i]
	}
	return w.key(cone.Outputs[0])
}

type taskShape struct{ nodesAfter, keyInputs int }

func taskShapes(p *Plan) []taskShape {
	out := make([]taskShape, len(p.Tasks))
	for i, t := range p.Tasks {
		out[i] = taskShape{t.NodesAfter, t.KeyInputs}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].nodesAfter != out[j].nodesAfter {
			return out[i].nodesAfter < out[j].nodesAfter
		}
		return out[i].keyInputs < out[j].keyInputs
	})
	return out
}

// viaBLIF round-trips c through BLIF, whose covers expand the
// generators' XOR and majority gates (as in the vbench workloads).
func viaBLIF(tb testing.TB, c *circuit.Circuit) *circuit.Circuit {
	tb.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		tb.Fatal(err)
	}
	d, err := blif.Parse(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

// TestCompileMatchesPerCone checks the single-pass compile against the
// per-cone reference: the same task count and the same multiset of
// per-task (NodesAfter, KeyInputs) on generated suite sessions and on
// BLIF-read multiplier and adder pools. On sessions small enough to
// enumerate, the compiled plan's counts (vacsem backend over its
// compressed cones) must equal enumeration over the reference's
// uncompressed session circuit.
func TestCompileMatchesPerCone(t *testing.T) {
	specs := []Spec{{Kind: ER}, {Kind: MED}, {Kind: MHD}, {Kind: ThresholdProb, Threshold: big.NewInt(3)}}
	type session struct {
		name          string
		exact, approx *circuit.Circuit
	}
	var sessions []session
	mult8 := viaBLIF(t, gen.ArrayMultiplier(8))
	for k := 1; k <= 6; k++ {
		sessions = append(sessions, session{fmt.Sprintf("mult8/trunc%d", k), mult8,
			viaBLIF(t, als.TruncatedMultiplier(8, k))})
	}
	for n := 8; n <= 10; n++ {
		exact := viaBLIF(t, gen.RippleCarryAdder(n))
		for k := 2; k <= 6; k++ {
			sessions = append(sessions, session{fmt.Sprintf("adder%d/loa%d", n, k), exact,
				viaBLIF(t, als.LowerORAdder(n, k))})
		}
	}
	// The suite sessions take seconds, mostly in their ALS runs; -short
	// keeps the BLIF pools only.
	for _, bm := range gen.Suite() {
		if testing.Short() {
			break
		}
		exact := bm.Build()
		if exact.NumInputs() > 40 || exact.NumGates() > 3000 {
			continue
		}
		for i, approx := range als.SuiteApproximations(exact, 3, 7) {
			sessions = append(sessions, session{fmt.Sprintf("%s/apx%d", bm.Name, i), exact, approx})
		}
	}

	ctx := context.Background()
	vacsemBE, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	enumBE, err := engine.Lookup("enum")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		got, err := Build(ctx, s.exact, s.approx, specs, false)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		ref := referenceBuild(t, s.exact, s.approx, specs)
		if len(got.Tasks) != len(ref.Tasks) {
			t.Errorf("%s: %d tasks, per-cone reference %d", s.name, len(got.Tasks), len(ref.Tasks))
			continue
		}
		gs, rs := taskShapes(got), taskShapes(ref)
		for i := range gs {
			if gs[i] != rs[i] {
				t.Errorf("%s: task shapes (NodesAfter, KeyInputs) %v, per-cone reference %v", s.name, gs, rs)
				break
			}
		}
		if got.TotalInputs > 16 {
			continue
		}
		gotOut, err := got.Run(ctx, vacsemBE, engine.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		refOut, err := ref.Run(ctx, enumBE, engine.Config{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for mi := range gotOut.Metrics {
			if g, r := gotOut.Metrics[mi].Count, refOut.Metrics[mi].Count; g.Cmp(r) != 0 {
				t.Errorf("%s %s: count %v, enumeration %v", s.name, gotOut.Metrics[mi].Name, g, r)
			}
		}
	}
}

// BenchmarkPlanBuild times Phase 1 of a multiplier session: the 8-bit
// array multiplier against its truncation with k = 3 under ER+MED+MHD,
// both read back from BLIF.
func BenchmarkPlanBuild(b *testing.B) {
	exact := viaBLIF(b, gen.ArrayMultiplier(8))
	approx := viaBLIF(b, als.TruncatedMultiplier(8, 3))
	specs := []Spec{{Kind: ER}, {Kind: MED}, {Kind: MHD}}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	tasks := 0
	for i := 0; i < b.N; i++ {
		p, err := Build(ctx, exact, approx, specs, false)
		if err != nil {
			b.Fatal(err)
		}
		tasks += len(p.Tasks)
	}
	b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
}

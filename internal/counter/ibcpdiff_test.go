package counter_test

// Differential tests for implicit BCP: probing only asserts logical
// consequences, so counts with probing on, with it off, and from
// enumeration must agree bit for bit, and Satisfiable must agree with
// every count.

import (
	"context"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/gen"
	"vacsem/internal/plan"
)

// viaBLIF round-trips c through the BLIF writer and parser, the form
// circuits arrive in from files and the service.
func viaBLIF(t testing.TB, c *circuit.Circuit) *circuit.Circuit {
	t.Helper()
	var b strings.Builder
	if err := blif.Write(&b, c); err != nil {
		t.Fatal(err)
	}
	d, err := blif.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

type solverConfig struct {
	name string
	cfg  counter.Config
}

// ibcpConfigs returns the solver configurations whose counts must
// agree: VACSEM with implicit BCP on and off, and when dpll is set and
// the run is not -short, plain DPLL the same two ways (search without
// the simulation hook is where probing does the most work, and where
// multipliers get slow).
func ibcpConfigs(dpll bool) []solverConfig {
	cfgs := []solverConfig{
		{"vacsem", counter.Config{EnableSim: true}},
		{"vacsem-noIBCP", counter.Config{EnableSim: true, DisableIBCP: true}},
	}
	if dpll && !testing.Short() {
		cfgs = append(cfgs,
			solverConfig{"dpll", counter.Config{}},
			solverConfig{"dpll-noIBCP", counter.Config{DisableIBCP: true}})
	}
	return cfgs
}

// checkSessionAgainstEnum counts every non-trivial task of an ER+MED
// session under each of cfgs and compares with the enum backend's
// per-task counts. It returns the failed literals found with probing on.
func checkSessionAgainstEnum(t *testing.T, name string, exact, approx *circuit.Circuit, cfgs []solverConfig) uint64 {
	t.Helper()
	ctx := context.Background()
	pl, err := plan.Build(ctx, exact, approx, []plan.Spec{{Kind: plan.ER}, {Kind: plan.MED}}, false)
	if err != nil {
		t.Fatal(err)
	}
	enum, err := engine.Lookup("enum")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := pl.Run(ctx, enum, engine.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var failed uint64
	for j, task := range pl.Tasks {
		want := ref.TaskResults[j].Count
		if !nonTrivial(task.Sub) {
			continue
		}
		f, err := cnf.Encode(task.Sub)
		if err != nil {
			t.Fatal(err)
		}
		shift := uint(pl.Exec.NumInputs() - f.NumEncodedInputs())
		for _, c := range cfgs {
			s := counter.New(f, c.cfg)
			got, err := s.Count()
			if err != nil {
				t.Fatal(err)
			}
			if !c.cfg.DisableIBCP {
				failed += s.Stats().FailedLiterals
			}
			if got.Lsh(got, shift).Cmp(want) != 0 {
				t.Fatalf("%s task %d (%s) %s: count %v, enum %v", name, j, task.Label, c.name, got, want)
			}
			sat, err := s.Satisfiable()
			if err != nil {
				t.Fatal(err)
			}
			if sat != (want.Sign() != 0) {
				t.Fatalf("%s task %d (%s) %s: Satisfiable = %v, enum count %v", name, j, task.Label, c.name, sat, want)
			}
		}
	}
	return failed
}

// nonTrivial mirrors the engine's constant-propagation shortcut: a task
// whose output is a constant or a (negated) input never reaches a
// solver.
func nonTrivial(sub *circuit.Circuit) bool {
	out := sub.Outputs[0]
	nd := &sub.Nodes[out]
	switch {
	case out == 0, nd.Kind == circuit.Input:
		return false
	case nd.Kind == circuit.Not:
		in := nd.Fanins[0]
		return in != 0 && sub.Nodes[in].Kind != circuit.Input
	}
	return true
}

func TestIBCPDifferentialAdders(t *testing.T) {
	var failed uint64
	for n := 4; n <= 10; n++ {
		name := fmt.Sprintf("adder%d-loa%d", n, n/2)
		exact := viaBLIF(t, gen.RippleCarryAdder(n))
		approx := viaBLIF(t, als.LowerORAdder(n, n/2))
		failed += checkSessionAgainstEnum(t, name, exact, approx, ibcpConfigs(true))
	}
	if failed == 0 {
		t.Error("implicit BCP found no failed literal on any adder task")
	}
}

// TestIBCPDifferentialMultipliers leaves mult6 to the VACSEM configs:
// plain DPLL takes ~20 s on it.
func TestIBCPDifferentialMultipliers(t *testing.T) {
	for n := 4; n <= 6; n++ {
		name := fmt.Sprintf("mult%d-trunc%d", n, n/2)
		checkSessionAgainstEnum(t, name, gen.ArrayMultiplier(n), als.TruncatedMultiplier(n, n/2), ibcpConfigs(n <= 5))
	}
}

// TestIBCPDifferentialGaussUnits drives the Gauss derived-unit path:
// neither parity row propagates alone, but their sum forces x3, and
// only under x3 do the clauses over x9 and x11 shrink to the binaries
// that make x9 a failed literal — found by probing the frontier of the
// derived unit, not by the level-0 pass.
func TestIBCPDifferentialGaussUnits(t *testing.T) {
	const src = `p cnf 12 9
x 1 2 3 0
x -1 2 0
-3 -9 11 0
-3 -9 -11 0
3 4 5 0
-4 6 1 0
5 -6 7 0
-7 2 8 10 0
8 -5 12 -1 0
`
	f, err := cnf.ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := bruteCount(f)
	for _, c := range ibcpConfigs(true) {
		s := counter.New(f, c.cfg)
		got, err := s.Count()
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(want) != 0 {
			t.Fatalf("%s: count %v, brute force %v", c.name, got, want)
		}
		st := s.Stats()
		if st.GaussReductions == 0 {
			t.Errorf("%s: the Gauss derived-unit path never fired: %+v", c.name, st)
		}
		if !c.cfg.DisableIBCP && st.FailedLiterals == 0 {
			t.Errorf("%s: probing after the derived unit found no failed literal: %+v", c.name, st)
		}
		sat, err := s.Satisfiable()
		if err != nil {
			t.Fatal(err)
		}
		if sat != (want.Sign() != 0) {
			t.Fatalf("%s: Satisfiable = %v, count %v", c.name, sat, want)
		}
	}
}

// bruteCount enumerates every assignment of f's variables.
func bruteCount(f *cnf.Formula) *big.Int {
	var n int64
	for m := uint64(0); m < 1<<f.NumVars; m++ {
		val := func(l int32) bool {
			if l > 0 {
				return m>>(l-1)&1 == 1
			}
			return m>>(-l-1)&1 == 0
		}
		ok := true
		for _, cl := range f.Clauses {
			sat := false
			for _, l := range cl {
				sat = sat || val(l)
			}
			ok = ok && sat
		}
		for _, x := range f.Xors {
			par := false
			for _, v := range x.Vars {
				par = par != val(v)
			}
			ok = ok && par == x.Rhs
		}
		if ok {
			n++
		}
	}
	return big.NewInt(n)
}

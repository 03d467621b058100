package counter

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"vacsem/internal/cnf"
)

// TestSortSpansMatchesSortFunc checks the bucketed span sort against a
// plain slices.SortFunc with the lexicographic comparator on random
// span sets: clause-style spans with shared first codes and duplicate
// contents, one large bucket, and xor-style spans led by a len<<1|rhs
// header.
func TestSortSpansMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := &Solver{}
	for trial := 0; trial < 500; trial++ {
		var lits []int32
		var spans []keySpan
		add := func(seg []int32) {
			start := int32(len(lits))
			lits = append(lits, seg...)
			spans = append(spans, keySpan{start, int32(len(lits))})
		}
		nCodes := 2 + rng.Intn(40)
		randSeg := func(n int) []int32 {
			seg := make([]int32, n)
			for i := range seg {
				seg[i] = int32(rng.Intn(nCodes))
			}
			slices.Sort(seg)
			return seg
		}
		for n := rng.Intn(30); n > 0; n-- {
			switch r := rng.Intn(5); {
			case r == 0 && len(spans) > 0: // duplicate content
				sp := spans[rng.Intn(len(spans))]
				add(slices.Clone(lits[sp.start:sp.end]))
			case r == 1: // xor-style: header, then ranks
				ranks := randSeg(1 + rng.Intn(4))
				add(append([]int32{int32(len(ranks))<<1 | int32(rng.Intn(2))}, ranks...))
			default:
				add(randSeg(1 + rng.Intn(5)))
			}
		}
		if trial%10 == 0 { // one large bucket sharing a first code
			first := int32(rng.Intn(nCodes))
			for n := 50 + rng.Intn(150); n > 0; n-- {
				seg := randSeg(rng.Intn(4))
				add(append([]int32{first}, seg...))
			}
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })

		want := slices.Clone(spans)
		slices.SortFunc(want, func(a, b keySpan) int {
			return slices.Compare(lits[a.start:a.end], lits[b.start:b.end])
		})
		got := slices.Clone(spans)
		s.sortSpans(lits, got)
		for i := range want {
			if !slices.Equal(lits[got[i].start:got[i].end], lits[want[i].start:want[i].end]) {
				t.Fatalf("trial %d: span %d is %v, want %v", trial, i,
					lits[got[i].start:got[i].end], lits[want[i].start:want[i].end])
			}
		}
		byStart := func(a, b keySpan) int { return cmp.Compare(a.start, b.start) }
		slices.SortFunc(got, byStart)
		slices.SortFunc(want, byStart)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: sortSpans is not a permutation of its input", trial)
		}
	}
}

// TestFindComponentsMatchesReference checks findComponents on random
// CNF+XOR formulas under random consistent partial assignments, at the
// top level (all free variables) and nested (a component's variables
// after one more assignment, as branchCount calls it). Component
// variables must come out ascending and equal the groups a reference
// union-find over the active original clauses and rows reaches;
// clauses and rows must match as sets.
func TestFindComponentsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 300; trial++ {
		f := randomXorFormula(rng, 6+rng.Intn(30))
		s := New(f, Config{})
		s.reset()
		s.curLevel = 1
		assertSome := func(vars []int32, n int) {
			for ; n > 0; n-- {
				v := vars[rng.Intn(len(vars))]
				if s.assign[v] != unassigned {
					continue
				}
				lit := v
				if rng.Intn(2) == 0 {
					lit = -v
				}
				mark := len(s.trail)
				s.propQ = append(s.propQ, propItem{lit, reasonDecision})
				if !s.propagate() {
					s.undoTo(mark)
				}
			}
		}
		assertSome(varsUpTo(f.NumVars), rng.Intn(f.NumVars/2+1))
		var free []int32
		for _, v := range varsUpTo(f.NumVars) {
			if s.assign[v] == unassigned {
				free = append(free, v)
			}
		}
		comps := checkComponents(t, s, free)
		if len(comps) == 0 {
			continue
		}
		c := comps[rng.Intn(len(comps))]
		assertSome(c.vars, 1)
		checkComponents(t, s, c.vars)
	}
}

// randomXorFormula returns a random formula of short clauses and a few
// parity rows over n variables.
func randomXorFormula(rng *rand.Rand, n int) *cnf.Formula {
	f := &cnf.Formula{NumVars: n}
	pick := func(k int) []int32 {
		vs := rng.Perm(n)[:min(k, n)]
		out := make([]int32, len(vs))
		for i, v := range vs {
			out[i] = int32(v + 1)
		}
		return out
	}
	for m := n/2 + rng.Intn(n); m > 0; m-- {
		cl := pick(2 + rng.Intn(3))
		for i := range cl {
			if rng.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		f.Clauses = append(f.Clauses, cl)
	}
	for m := rng.Intn(4); m > 0; m-- {
		vs := pick(2 + rng.Intn(3))
		slices.Sort(vs)
		f.Xors = append(f.Xors, cnf.XorClause{Vars: vs, Rhs: rng.Intn(2) == 1})
	}
	return f
}

// checkComponents runs findComponents(vars) and compares it with a
// union-find over the active original clauses and rows, evaluated from
// the assignment alone.
func checkComponents(t *testing.T, s *Solver, vars []int32) []*component {
	t.Helper()
	parent := make([]int32, s.nVars+1)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		if parent[v] != v {
			parent[v] = find(parent[v])
		}
		return parent[v]
	}
	constrained := make([]bool, s.nVars+1)
	link := func(vs []int32) {
		for _, w := range vs {
			constrained[w] = true
			parent[find(w)] = find(vs[0])
		}
	}
	freeOf := func(vs []int32) []int32 {
		var out []int32
		for _, w := range vs {
			if s.assign[w] == unassigned {
				out = append(out, w)
			}
		}
		return out
	}
	var active [][]int32 // free vars of each active clause, then each active row
	var activeCls, activeXors []int32
	for ci := int32(0); ci < s.nOrig; ci++ {
		sat := false
		var vs []int32
		for _, l := range s.clauses[ci] {
			vs = append(vs, litVar(l))
			if a := s.assign[litVar(l)]; a != unassigned && (a == 1) == (l > 0) {
				sat = true
			}
		}
		if fv := freeOf(vs); !sat && len(fv) > 0 {
			link(fv)
			active = append(active, fv)
			activeCls = append(activeCls, ci)
		}
	}
	for xi, x := range s.xors {
		if fv := freeOf(x.Vars); len(fv) > 0 {
			link(fv)
			active = append(active, fv)
			activeXors = append(activeXors, int32(xi))
		}
	}

	var wantVars [][]int32
	wantFree := 0
	rootComp := map[int32]int{}
	for _, v := range vars {
		if s.assign[v] != unassigned {
			continue
		}
		if !constrained[v] {
			wantFree++
			continue
		}
		r := find(v)
		i, ok := rootComp[r]
		if !ok {
			i = len(wantVars)
			rootComp[r] = i
			wantVars = append(wantVars, nil)
		}
		wantVars[i] = append(wantVars[i], v)
	}
	wantCls := make([][]int32, len(wantVars))
	wantXors := make([][]int32, len(wantVars))
	for i, fv := range active {
		c, ok := rootComp[find(fv[0])]
		if !ok {
			continue
		}
		if i < len(activeCls) {
			wantCls[c] = append(wantCls[c], activeCls[i])
		} else {
			wantXors[c] = append(wantXors[c], activeXors[i-len(activeCls)])
		}
	}

	comps, free := s.findComponents(vars)
	if free != wantFree || len(comps) != len(wantVars) {
		t.Fatalf("got %d components and %d free vars, want %d and %d", len(comps), free, len(wantVars), wantFree)
	}
	for i, c := range comps {
		if !slices.IsSorted(c.vars) {
			t.Fatalf("component %d vars %v not ascending", i, c.vars)
		}
		if !slices.Equal(c.vars, wantVars[i]) {
			t.Fatalf("component %d vars %v, want %v", i, c.vars, wantVars[i])
		}
		if got := sortedCopy(c.clauses); !slices.Equal(got, wantCls[i]) {
			t.Fatalf("component %d clauses %v, want %v", i, got, wantCls[i])
		}
		if got := sortedCopy(c.xors); !slices.Equal(got, wantXors[i]) {
			t.Fatalf("component %d rows %v, want %v", i, got, wantXors[i])
		}
	}
	return comps
}

func sortedCopy(xs []int32) []int32 {
	out := slices.Clone(xs)
	slices.Sort(out)
	return out
}

package counter

import (
	"encoding/binary"
	"math/big"
	"slices"
)

// component is a maximal set of free variables connected through active
// (not-yet-satisfied) clauses and active parity rows, together with
// those constraints. Components share no variables, so their counts
// multiply (Algorithm 1, line 11).
type component struct {
	vars    []int32 // free variables, sorted
	clauses []int32 // active clause indices, sorted
	xors    []int32 // active xor row indices, sorted
}

// findComponents partitions the given candidate variables into connected
// components of the residual formula. Variables that are unassigned but
// appear in no active clause are unconstrained; their number is returned
// as freeCount (each contributes a factor of 2).
func (s *Solver) findComponents(vars []int32) (comps []*component, freeCount int) {
	s.stamp++
	stamp := s.stamp
	var queue []int32
	for _, v0 := range vars {
		if s.assign[v0] != unassigned || s.varSeen[v0] == stamp {
			continue
		}
		// Does v0 touch any active clause?
		if !s.hasActiveClause(v0) {
			s.varSeen[v0] = stamp
			freeCount++
			continue
		}
		comp := &component{}
		s.varSeen[v0] = stamp
		queue = append(queue[:0], v0)
		comp.vars = append(comp.vars, v0)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for pass := 0; pass < 2; pass++ {
				var li int32
				if pass == 0 {
					li = 2 * v
				} else {
					li = 2*v + 1
				}
				for _, ci := range s.occ[li] {
					// Learned clauses are implied by the original formula:
					// they never constrain counts, so they stay invisible
					// to component analysis.
					if ci >= s.nOrig || s.nTrue[ci] != 0 || s.clSeen[ci] == stamp {
						continue
					}
					s.clSeen[ci] = stamp
					comp.clauses = append(comp.clauses, ci)
					for _, l := range s.clauses[ci] {
						w := litVar(l)
						if s.assign[w] != unassigned || s.varSeen[w] == stamp {
							continue
						}
						s.varSeen[w] = stamp
						comp.vars = append(comp.vars, w)
						queue = append(queue, w)
					}
				}
			}
			for _, xi := range s.xorOcc[v] {
				// A fully assigned row constrains nothing further; rows
				// with free variables connect them like clauses do.
				if s.xorFree[xi] == 0 || s.xorSeen[xi] == stamp {
					continue
				}
				s.xorSeen[xi] = stamp
				comp.xors = append(comp.xors, xi)
				for _, w := range s.xors[xi].Vars {
					if s.assign[w] != unassigned || s.varSeen[w] == stamp {
						continue
					}
					s.varSeen[w] = stamp
					comp.vars = append(comp.vars, w)
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(comp.vars)
		slices.Sort(comp.clauses)
		slices.Sort(comp.xors)
		comps = append(comps, comp)
	}
	return comps, freeCount
}

func (s *Solver) hasActiveClause(v int32) bool {
	for _, ci := range s.occ[2*v] {
		if ci < s.nOrig && s.nTrue[ci] == 0 {
			return true
		}
	}
	for _, ci := range s.occ[2*v+1] {
		if ci < s.nOrig && s.nTrue[ci] == 0 {
			return true
		}
	}
	return s.hasActiveXor(v)
}

// cacheKey canonicalizes the residual component into a solver-independent
// content key: the component's variables are remapped to dense local
// indices in their sorted order, every active clause is reduced to its
// free literals (falsified literals drop; a satisfied clause is not
// active) encoded over the local indices and sorted, and the clause
// tuples are sorted lexicographically before being serialized as uvarint
// streams. Two equal keys denote residual subformulas identical up to
// variable renaming, and model counts are invariant under renaming — so
// caching on this key is sound, including across different solvers'
// formulas (the shared cross-sub-miter cache). Clause ids never enter
// the key, so the historic wide-clause position-mask aliasing cannot
// recur by construction.
//
// Active parity rows are serialized into a second section after the
// clause tuples: per row a header uvarint(len<<1 | rhs) — rhs being the
// row's *effective* right-hand side under the current assignment — then
// the sorted local ranks of its free variables, rows sorted
// lexicographically. The xor section is always appended, prefixed with
// the row count, so a CNF-only residual and a CNF+XOR residual over the
// same clause tuples can never alias.
func (s *Solver) cacheKey(comp *component) string {
	for i, v := range comp.vars {
		s.varRank[v] = int32(i)
	}
	lits := s.keyLits[:0]
	spans := s.keySpans[:0]
	for _, ci := range comp.clauses {
		start := len(lits)
		for _, l := range s.clauses[ci] {
			v := litVar(l)
			if s.assign[v] != unassigned {
				continue
			}
			code := s.varRank[v] << 1
			if l < 0 {
				code |= 1
			}
			lits = append(lits, code)
		}
		slices.Sort(lits[start:])
		spans = append(spans, keySpan{int32(start), int32(len(lits))})
	}
	nCls := len(spans)
	// XOR rows go into the same flat buffer as [hdr, ranks...], so rows
	// sort by header first, then by their ranks.
	for _, xi := range comp.xors {
		start := len(lits)
		lits = append(lits, 0) // header slot, filled below
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] != unassigned {
				continue
			}
			lits = append(lits, s.varRank[v]) // row Vars sorted => ranks sorted
		}
		hdr := int32(len(lits)-start-1) << 1
		if s.xors[xi].Rhs != (s.xorPar[xi] == 1) {
			hdr |= 1
		}
		lits[start] = hdr
		spans = append(spans, keySpan{int32(start), int32(len(lits))})
	}
	cmpSpans := func(a, b keySpan) int {
		return slices.Compare(lits[a.start:a.end], lits[b.start:b.end])
	}
	slices.SortFunc(spans[:nCls], cmpSpans)
	slices.SortFunc(spans[nCls:], cmpSpans)
	buf := s.keyBuf[:0]
	for _, sp := range spans[:nCls] {
		buf = binary.AppendUvarint(buf, uint64(sp.end-sp.start))
		for _, code := range lits[sp.start:sp.end] {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	// XOR section: canonical rows (effective rhs header + free-variable
	// ranks), sorted, always present so clause-only keys cannot alias
	// mixed ones.
	buf = binary.AppendUvarint(buf, uint64(len(spans)-nCls))
	for _, sp := range spans[nCls:] {
		for _, code := range lits[sp.start:sp.end] {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	s.keyLits, s.keySpans, s.keyBuf = lits[:0], spans[:0], buf
	return string(buf)
}

// keySpan locates one clause or xor-row segment in Solver.keyLits.
type keySpan struct{ start, end int32 }

// solveComponent counts the models of one residual component, consulting
// the cache and the simulation controller first (Algorithm 1 lines 1-2),
// then falling back to DPLL branching (lines 3-14). It returns nil when
// the time limit expired.
func (s *Solver) solveComponent(comp *component) *big.Int {
	if s.checkAbort() {
		return nil
	}
	s.stats.Components++
	if s.tr != nil {
		s.traceComponent(comp)
	}
	var key string
	if s.cache != nil {
		key = s.cacheKey(comp)
		if v, cross, ok := s.cache.Lookup(key, s.cfg.CacheOwner); ok {
			s.stats.CacheHits++
			if cross {
				s.stats.CacheCrossHits++
			}
			if s.tr != nil {
				s.traceCache("hit")
			}
			return v
		}
	}
	if cnt, ok := s.tryGauss(comp); ok {
		if cnt == nil { // cancelled during the recursive solve
			return nil
		}
		s.cacheStore(key, cnt)
		return cnt
	}
	if cnt, ok := s.trySimulate(comp); ok {
		if cnt == nil { // cancelled mid-simulation
			return nil
		}
		s.cacheStore(key, cnt)
		return cnt
	}
	cnt := s.branchCount(comp)
	if cnt != nil {
		s.cacheStore(key, cnt)
	}
	return cnt
}

// cacheStore memoizes a component count. A full cache shard evicts per
// entry (2-random) rather than clearing wholesale; the eviction count is
// tracked separately from stores, so the stats distinguish cache churn
// from growth. cnt must not be mutated after the call.
func (s *Solver) cacheStore(key string, cnt *big.Int) {
	if s.cache == nil {
		return
	}
	evicted := s.cache.Store(key, cnt, s.cfg.CacheOwner)
	s.stats.CacheStores++
	s.stats.CacheEvictions += uint64(evicted)
	if s.tr != nil {
		s.traceCache("store")
	}
}

// branchCount implements the DPLL part: pick a decision variable, count
// both phases, decompose the simplified formula, and sum.
func (s *Solver) branchCount(comp *component) *big.Int {
	v := s.pickVar(comp)
	s.stats.Decisions++
	total := big.NewInt(0)
	for _, lit := range [2]int32{v, -v} {
		mark := len(s.trail)
		s.curLevel++
		s.propQ = append(s.propQ, propItem{lit, reasonDecision})
		if s.propagateAndProbe(mark, comp.vars) {
			sub := big.NewInt(1)
			comps, freeCount := s.findComponents(comp.vars)
			sub.Lsh(sub, uint(freeCount))
			for _, sc := range comps {
				r := s.solveComponent(sc)
				if r == nil {
					s.undoTo(mark)
					s.curLevel--
					return nil
				}
				sub.Mul(sub, r)
				if sub.Sign() == 0 {
					break
				}
			}
			total.Add(total, sub)
		}
		s.undoTo(mark)
		s.curLevel--
	}
	return total
}

// pickVar returns the component variable appearing in the most active
// clauses, weighting short clauses higher (a VSADS-flavoured static score
// recomputed per component, which adapts dynamically as the residual
// formula shrinks).
func (s *Solver) pickVar(comp *component) int32 {
	best := comp.vars[0]
	bestScore := int32(-1)
	// Score per variable: sum over active clauses of 1, weighted 4 for
	// binary residual clauses (they propagate immediately when decided).
	score := s.score
	for _, ci := range comp.clauses {
		w := int32(1)
		if int32(len(s.clauses[ci]))-s.nFalse[ci] == 2 {
			w = 4
		}
		for _, l := range s.clauses[ci] {
			x := litVar(l)
			if s.assign[x] == unassigned {
				score[x] += w
			}
		}
	}
	// Parity rows score like clauses: a row down to two free variables
	// propagates immediately when one of them is decided.
	for _, xi := range comp.xors {
		w := int32(2)
		if s.xorFree[xi] == 2 {
			w = 4
		}
		for _, l := range s.xors[xi].Vars {
			if s.assign[l] == unassigned {
				score[l] += w
			}
		}
	}
	// Every scored variable is a free component variable, so zeroing
	// over comp.vars leaves the array clean for the next call.
	for _, v := range comp.vars {
		if sc := score[v]; sc > bestScore {
			bestScore = sc
			best = v
		}
		score[v] = 0
	}
	return best
}

package counter

// Implicit BCP (failed-literal probing), the sharpSAT/GANAK technique:
// before branching on a component, tentatively assign candidate literals
// and propagate; a literal whose propagation conflicts is forced to its
// complement. This prunes the unsatisfiable cores that arise in
// high-order deviation bits of MED miters (where |y - y'| provably never
// reaches bit j) without full clause learning.
//
// Probing is incremental, as in sharpSAT: after a decision (or
// Gauss-derived units) only the frontier of the assignments made since
// the trail mark is probed, since a failure the decision brought about
// must involve what it changed. Failures far from the frontier can go
// unfound; that costs cache reuse, never exactness. Only the level-0
// pass probes every variable.

// probeAll, passed as the trail mark, makes failedLiteralFixpoint probe
// every candidate variable instead of the frontier (the level-0 pass).
const probeAll = -1

// propagateAndProbe drains the propagation queue and then, unless
// implicit BCP is disabled, probes the frontier of the assignments made
// since trail position mark (every variable for probeAll), restricted
// to the component variables vars. It reports false when the residual
// is contradictory.
func (s *Solver) propagateAndProbe(mark int, vars []int32) bool {
	if !s.propagate() {
		return false
	}
	return s.cfg.DisableIBCP || s.failedLiteralFixpoint(mark, vars)
}

// probeCandidates collects the free variables of the component that
// occur in an active binary-residual clause — the classic candidate set:
// probing them is what makes chains of short clauses collapse.
func (s *Solver) probeCandidates(vars []int32, out []int32) []int32 {
	out = out[:0]
	for _, v := range vars {
		if s.assign[v] != unassigned {
			continue
		}
		if s.activeBinaries(v, nil) {
			out = append(out, v)
		}
	}
	return out
}

// activeBinaries reports whether v occurs in an active binary residual
// clause or in an xor row down to two free variables (such a row
// propagates on either probe phase, exactly like a binary clause). With
// add nil it stops at the first; otherwise it passes every variable of
// every such binary to add.
func (s *Solver) activeBinaries(v int32, add func(int32)) bool {
	found := false
	for _, li := range [2]int32{2 * v, 2*v + 1} {
		for _, ci := range s.occ[li] {
			if s.nTrue[ci] != 0 || int32(len(s.clauses[ci]))-s.nFalse[ci] != 2 {
				continue
			}
			if add == nil {
				return true
			}
			found = true
			for _, l := range s.clauses[ci] {
				add(litVar(l))
			}
		}
	}
	for _, xi := range s.xorOcc[v] {
		if s.xorFree[xi] != 2 {
			continue
		}
		if add == nil {
			return true
		}
		found = true
		for _, w := range s.xors[xi].Vars {
			add(w)
		}
	}
	return found
}

// frontierHops is how many rounds the frontier widens through active
// binaries past the shortened constraints. On adder MED miters two
// rounds keep component and cache-entry counts within a few percent of
// probing the whole component; one round leaves ~10% more cache
// entries.
const frontierHops = 2

// frontierCandidates collects the probe candidates of the frontier of
// trail[mark:]: the free variables of the clauses and xor rows those
// assignments shortened, then frontierHops rounds of their free partners
// in active binary residual clauses and two-variable rows. A shortened
// constraint's variable in no such binary is dropped: probing it
// propagates nothing, so it cannot fail. Only variables of vars are
// collected, nearest the trail first.
//
// frontSeen holds two stamps per call: st marks a component variable not
// yet collected, st+1 one already collected.
func (s *Solver) frontierCandidates(mark int, vars []int32, out []int32) []int32 {
	s.frontStamp += 2
	if s.frontStamp == 0 { // wrapped: stale stamps could collide
		clear(s.frontSeen)
		s.frontStamp = 2
	}
	st := s.frontStamp
	for _, v := range vars {
		s.frontSeen[v] = st
	}
	out = out[:0]
	add := func(w int32) {
		if s.frontSeen[w] == st && s.assign[w] == unassigned {
			s.frontSeen[w] = st + 1
			out = append(out, w)
		}
	}
	for _, lit := range s.trail[mark:] {
		for _, ci := range s.occ[litIndex(-lit)] {
			if s.nTrue[ci] != 0 {
				continue
			}
			for _, l := range s.clauses[ci] {
				add(litVar(l))
			}
		}
		for _, xi := range s.xorOcc[litVar(lit)] {
			if s.xorFree[xi] == 0 {
				continue
			}
			for _, w := range s.xors[xi].Vars {
				add(w)
			}
		}
	}
	shortened := len(out)
	kept := 0 // shortened-constraint variables found in a binary
	for lo, h := 0, 0; h < frontierHops && lo < len(out); h++ {
		hi := len(out)
		for i := lo; i < hi; i++ {
			if s.activeBinaries(out[i], add) && i < shortened {
				out[kept] = out[i]
				kept++
			}
		}
		lo = hi
	}
	// Partners (collected after the shortened-constraint variables) sit
	// in a binary by construction.
	return append(out[:kept], out[shortened:]...)
}

// failedLiteralFixpoint probes candidate variables of the component to a
// fixpoint: the frontier of trail[mark:] (recomputed from the same mark
// after every pass that asserted a failed literal), or every candidate
// of vars when mark is probeAll. Literals whose propagation conflicts
// are asserted negated (they are logical consequences, so the model
// count is unchanged). It reports false when the current assignment
// itself is contradictory (both phases of some variable fail), meaning
// the component has zero models.
func (s *Solver) failedLiteralFixpoint(mark int, vars []int32) bool {
	for {
		if mark == probeAll {
			s.probeBuf = s.probeCandidates(vars, s.probeBuf)
		} else {
			s.probeBuf = s.frontierCandidates(mark, vars, s.probeBuf)
		}
		changed := false
		for _, v := range s.probeBuf {
			if s.assign[v] != unassigned {
				continue
			}
			if s.checkAbort() {
				return true // let the caller notice the abort flag
			}
			failed, ok := s.probe(v)
			if !ok {
				return false
			}
			changed = changed || failed
		}
		if !changed {
			return true
		}
	}
}

// probe tries both phases of v. A phase whose propagation conflicts is
// a failed literal: its complement is asserted and propagated. probe
// reports whether a failed literal was asserted, and ok=false when that
// propagation conflicted too.
func (s *Solver) probe(v int32) (failed, ok bool) {
	for _, lit := range [2]int32{v, -v} {
		mark := len(s.trail)
		s.curLevel++
		s.propQ = append(s.propQ, propItem{lit, reasonDecision})
		okLit := s.propagate()
		s.undoTo(mark)
		s.curLevel--
		if !okLit {
			s.stats.FailedLiterals++
			s.propQ = append(s.propQ, propItem{-lit, reasonAsserted})
			return true, s.propagate()
		}
	}
	return false, true
}

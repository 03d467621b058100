// Package synth provides the function-preserving logic-synthesis passes
// that VACSEM applies to each sub-miter before CNF conversion (the paper
// uses ABC's compress2rs for this step). The passes shrink the netlist —
// fewer nodes means fewer CNF variables and clauses — without changing
// the Boolean function of any primary output:
//
//   - constant propagation and algebraic simplification,
//   - structural hashing (common-subexpression elimination),
//   - inverter-pair and buffer elimination,
//   - XOR/MUX pattern extraction,
//   - dangling-logic sweeping (implicit: rebuilds keep only live cones).
//
// Compress iterates the rebuild pass to a fixpoint, mirroring the role of
// the iterated compress2rs script.
package synth

import (
	"vacsem/internal/circuit"
)

// builder rebuilds a circuit with hashing and local simplification.
type builder struct {
	c     *circuit.Circuit
	hash  map[nodeKey]int
	notOf []int // id -> id of its negation, or -1
	one   int   // id of constant 1, or -1
}

type nodeKey struct {
	kind       circuit.Kind
	f0, f1, f2 int
}

func newBuilder(name string) *builder {
	b := &builder{
		c:    circuit.New(name),
		hash: make(map[nodeKey]int),
		one:  -1,
	}
	b.notOf = append(b.notOf, -1) // const0
	return b
}

func (b *builder) grow(id int) int {
	for len(b.notOf) <= id {
		b.notOf = append(b.notOf, -1)
	}
	return id
}

func (b *builder) input(name string) int {
	return b.grow(b.c.AddInput(name))
}

func (b *builder) const1() int {
	if b.one < 0 {
		if n := b.notOf[0]; n >= 0 {
			b.one = n
		} else {
			b.one = b.raw(circuit.Not, 0)
		}
	}
	return b.one
}

func (b *builder) isConst0(id int) bool { return id == 0 }
func (b *builder) isConst1(id int) bool { return b.one >= 0 && id == b.one }

// raw adds (or reuses) a gate without simplification beyond hashing.
func (b *builder) raw(k circuit.Kind, fi ...int) int {
	key := nodeKey{kind: k, f0: -1, f1: -1, f2: -1}
	switch len(fi) {
	case 1:
		key.f0 = fi[0]
	case 2:
		// commutative kinds: canonical fanin order
		a, c := fi[0], fi[1]
		if a > c {
			a, c = c, a
		}
		key.f0, key.f1 = a, c
		fi = []int{a, c}
	case 3:
		if k == circuit.Maj {
			a, c, d := fi[0], fi[1], fi[2]
			if a > c {
				a, c = c, a
			}
			if c > d {
				c, d = d, c
			}
			if a > c {
				a, c = c, a
			}
			fi = []int{a, c, d}
		}
		key.f0, key.f1, key.f2 = fi[0], fi[1], fi[2]
	}
	if id, ok := b.hash[key]; ok {
		return id
	}
	id := b.grow(b.c.AddGate(k, fi...))
	b.hash[key] = id
	if k == circuit.Not {
		b.notOf[id] = fi[0]
		b.notOf[fi[0]] = id
	}
	return id
}

func (b *builder) mkNot(a int) int {
	if a == 0 {
		return b.const1()
	}
	if b.isConst1(a) {
		return 0
	}
	if n := b.notOf[a]; n >= 0 {
		return n
	}
	return b.raw(circuit.Not, a)
}

func (b *builder) mkBuf(a int) int { return a }

func (b *builder) mkAnd(a, c int) int {
	switch {
	case b.isConst0(a) || b.isConst0(c):
		return 0
	case b.isConst1(a):
		return c
	case b.isConst1(c):
		return a
	case a == c:
		return a
	case b.notOf[a] == c:
		return 0
	}
	return b.raw(circuit.And, a, c)
}

func (b *builder) mkOr(a, c int) int {
	switch {
	case b.isConst1(a) || b.isConst1(c):
		return b.const1()
	case b.isConst0(a):
		return c
	case b.isConst0(c):
		return a
	case a == c:
		return a
	case b.notOf[a] == c:
		return b.const1()
	}
	// XOR/XNOR extraction: Or(And(x, ~y), And(~x, y)) => Xor(x, y) and
	// Or(And(x, y), And(~x, ~y)) => Xnor(x, y).
	if id, ok := b.tryXorExtract(a, c); ok {
		return id
	}
	return b.raw(circuit.Or, a, c)
}

// tryXorExtract recognizes the two-AND decompositions of XOR and XNOR.
func (b *builder) tryXorExtract(a, c int) (int, bool) {
	na, nc := b.c.Nodes[a], b.c.Nodes[c]
	if na.Kind != circuit.And || nc.Kind != circuit.And {
		return 0, false
	}
	p0, p1 := na.Fanins[0], na.Fanins[1]
	for _, q := range [2][2]int{{nc.Fanins[0], nc.Fanins[1]}, {nc.Fanins[1], nc.Fanins[0]}} {
		q0, q1 := q[0], q[1]
		if b.notOf[p0] != q0 {
			continue
		}
		if b.notOf[p1] == q1 {
			// (p0 & p1) | (~p0 & ~p1) = XNOR(p0, p1)
			return b.mkNot(b.mkXor(p0, p1)), true
		}
		if p1 == q1 {
			// (p0 & p1) | (~p0 & p1) = p1; mkOr's earlier rules cannot
			// see through the ANDs, so catch it here.
			return p1, true
		}
	}
	for _, q := range [2][2]int{{nc.Fanins[0], nc.Fanins[1]}, {nc.Fanins[1], nc.Fanins[0]}} {
		q0, q1 := q[0], q[1]
		if b.notOf[p0] == q0 && b.notOf[q1] == p1 {
			// (p0 & ~q1) | (~p0 & q1) = XOR(p0, q1)
			return b.mkXor(p0, q1), true
		}
		if b.notOf[p1] == q0 && b.notOf[q1] == p0 {
			return b.mkXor(p1, q1), true
		}
	}
	return 0, false
}

func (b *builder) mkXor(a, c int) int {
	switch {
	case a == c:
		return 0
	case b.isConst0(a):
		return c
	case b.isConst0(c):
		return a
	case b.isConst1(a):
		return b.mkNot(c)
	case b.isConst1(c):
		return b.mkNot(a)
	case b.notOf[a] == c:
		return b.const1()
	}
	// Push negations out: Xor(~a, c) = ~Xor(a, c); canonicalize so the
	// hash table sees one polarity.
	neg := false
	if n := b.notOf[a]; n >= 0 && n < a {
		a, neg = n, !neg
	}
	if n := b.notOf[c]; n >= 0 && n < c {
		c, neg = n, !neg
	}
	if x, ok := b.xorAbsorb(a, c); ok {
		if neg {
			return b.mkNot(x)
		}
		return x
	}
	id := b.raw(circuit.Xor, a, c)
	if neg {
		return b.mkNot(id)
	}
	return id
}

// xorAbsorb recognizes Xor(Xor(x, y), y) = x: XOR is its own inverse, so
// re-xoring one operand back in cancels it. The pattern arises in the
// conditional negate of |y - y'|, where each difference bit is xored with
// the sign twice (once directly, once through the increment's half adder).
func (b *builder) xorAbsorb(a, c int) (int, bool) {
	if n := &b.c.Nodes[a]; n.Kind == circuit.Xor {
		if n.Fanins[0] == c {
			return n.Fanins[1], true
		}
		if n.Fanins[1] == c {
			return n.Fanins[0], true
		}
	}
	if n := &b.c.Nodes[c]; n.Kind == circuit.Xor {
		if n.Fanins[0] == a {
			return n.Fanins[1], true
		}
		if n.Fanins[1] == a {
			return n.Fanins[0], true
		}
	}
	return 0, false
}

func (b *builder) mkMux(s, a, c int) int {
	switch {
	case b.isConst0(s):
		return a
	case b.isConst1(s):
		return c
	case a == c:
		return a
	case b.isConst0(a) && b.isConst1(c):
		return s
	case b.isConst1(a) && b.isConst0(c):
		return b.mkNot(s)
	case b.isConst0(a):
		return b.mkAnd(s, c)
	case b.isConst1(c):
		return b.mkOr(s, a)
	case b.isConst1(a):
		return b.mkOr(b.mkNot(s), c)
	case b.isConst0(c):
		return b.mkAnd(b.mkNot(s), a)
	case b.notOf[a] == c:
		return b.mkXor(s, a)
	}
	return b.raw(circuit.Mux, s, a, c)
}

func (b *builder) mkMaj(a, c, d int) int {
	switch {
	case a == c:
		return a
	case a == d:
		return a
	case c == d:
		return c
	case b.isConst0(a):
		return b.mkAnd(c, d)
	case b.isConst0(c):
		return b.mkAnd(a, d)
	case b.isConst0(d):
		return b.mkAnd(a, c)
	case b.isConst1(a):
		return b.mkOr(c, d)
	case b.isConst1(c):
		return b.mkOr(a, d)
	case b.isConst1(d):
		return b.mkOr(a, c)
	case b.notOf[a] == c:
		return d
	case b.notOf[a] == d:
		return c
	case b.notOf[c] == d:
		return a
	}
	return b.raw(circuit.Maj, a, c, d)
}

func (b *builder) mk(k circuit.Kind, fi []int) int {
	switch k {
	case circuit.Buf:
		return b.mkBuf(fi[0])
	case circuit.Not:
		return b.mkNot(fi[0])
	case circuit.And:
		return b.mkAnd(fi[0], fi[1])
	case circuit.Nand:
		return b.mkNot(b.mkAnd(fi[0], fi[1]))
	case circuit.Or:
		return b.mkOr(fi[0], fi[1])
	case circuit.Nor:
		return b.mkNot(b.mkOr(fi[0], fi[1]))
	case circuit.Xor:
		return b.mkXor(fi[0], fi[1])
	case circuit.Xnor:
		return b.mkNot(b.mkXor(fi[0], fi[1]))
	case circuit.Mux:
		return b.mkMux(fi[0], fi[1], fi[2])
	case circuit.Maj:
		return b.mkMaj(fi[0], fi[1], fi[2])
	default:
		panic("synth: mk on " + k.String())
	}
}

// Rebuild performs one simplify-and-hash pass over the circuit, returning
// a new circuit with identical primary-input/-output behaviour. Dangling
// logic is dropped (only the output cones are rebuilt, lazily through the
// topological walk plus a final cone extraction).
func Rebuild(c *circuit.Circuit) *circuit.Circuit {
	b := newBuilder(c.Name)
	old2new := make([]int, len(c.Nodes))
	old2new[0] = 0
	mark := c.ConeMark(c.Outputs...)
	// Inputs are preserved even outside the cone so input indexing stays
	// stable for callers.
	for _, id := range c.Inputs {
		old2new[id] = b.input(c.Nodes[id].Name)
	}
	var fi [3]int
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		if nd.Kind == circuit.Input || !mark[id] {
			continue
		}
		args := fi[:len(nd.Fanins)]
		for j, f := range nd.Fanins {
			args[j] = old2new[f]
		}
		old2new[id] = b.mk(nd.Kind, args)
	}
	for i, o := range c.Outputs {
		b.c.AddOutput(old2new[o], c.OutputName(i))
	}
	return Sweep(b.c)
}

// Sweep removes logic that feeds no primary output. All primary inputs
// are kept (even unused ones) so input indexing stays stable.
func Sweep(c *circuit.Circuit) *circuit.Circuit {
	mark := c.ConeMark(c.Outputs...)
	nc := circuit.New(c.Name)
	old2new := make([]int, len(c.Nodes))
	for i := range old2new {
		old2new[i] = -1
	}
	old2new[0] = 0
	for _, id := range c.Inputs {
		old2new[id] = nc.AddInput(c.Nodes[id].Name)
	}
	var fi [3]int
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		if nd.Kind == circuit.Input || !mark[id] {
			continue
		}
		args := fi[:len(nd.Fanins)]
		for j, f := range nd.Fanins {
			args[j] = old2new[f]
		}
		old2new[id] = nc.AddGate(nd.Kind, args...)
	}
	for i, o := range c.Outputs {
		nc.AddOutput(old2new[o], c.OutputName(i))
	}
	return nc
}

// Compress iterates Rebuild until the node count stops shrinking (at most
// maxRounds passes). It plays the role of ABC's compress2rs in the VACSEM
// flow: shrink each sub-miter before CNF conversion.
func Compress(c *circuit.Circuit) *circuit.Circuit {
	const maxRounds = 4
	cur := c
	best := cur.NumNodes()
	for round := 0; round < maxRounds; round++ {
		next := Rebuild(cur)
		if n := next.NumNodes(); n < best {
			best = n
			cur = next
			continue
		}
		if round == 0 {
			cur = next // always take at least one hashing pass
		}
		break
	}
	return cur
}

// ToAIG converts the circuit into an AND-inverter graph: only Input, And
// and Not nodes remain (the paper represents miters as AIGs). The
// conversion shares structure through the same hashing builder.
func ToAIG(c *circuit.Circuit) *circuit.Circuit {
	b := newBuilder(c.Name + "_aig")
	old2new := make([]int, len(c.Nodes))
	old2new[0] = 0
	mark := c.ConeMark(c.Outputs...)
	for _, id := range c.Inputs {
		old2new[id] = b.input(c.Nodes[id].Name)
	}
	and := b.mkAnd
	not := b.mkNot
	or := func(x, y int) int { return not(b.mkAnd(not(x), not(y))) }
	xor := func(x, y int) int { return or(and(x, not(y)), and(not(x), y)) }
	var fi [3]int
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		if nd.Kind == circuit.Input || !mark[id] {
			continue
		}
		args := fi[:len(nd.Fanins)]
		for j, f := range nd.Fanins {
			args[j] = old2new[f]
		}
		var v int
		switch nd.Kind {
		case circuit.Buf:
			v = args[0]
		case circuit.Not:
			v = not(args[0])
		case circuit.And:
			v = and(args[0], args[1])
		case circuit.Nand:
			v = not(and(args[0], args[1]))
		case circuit.Or:
			v = or(args[0], args[1])
		case circuit.Nor:
			v = not(or(args[0], args[1]))
		case circuit.Xor:
			v = xor(args[0], args[1])
		case circuit.Xnor:
			v = not(xor(args[0], args[1]))
		case circuit.Mux:
			v = or(and(args[0], args[2]), and(not(args[0]), args[1]))
		case circuit.Maj:
			v = or(or(and(args[0], args[1]), and(args[0], args[2])), and(args[1], args[2]))
		default:
			panic("synth: ToAIG on " + nd.Kind.String())
		}
		old2new[id] = v
	}
	for i, o := range c.Outputs {
		b.c.AddOutput(old2new[o], c.OutputName(i))
	}
	return Sweep(b.c)
}

// AndCount returns the number of And nodes — the conventional AIG size
// metric used by the paper's Table III.
func AndCount(c *circuit.Circuit) int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Kind == circuit.And {
			n++
		}
	}
	return n
}

// Package circuit provides the gate-level netlist representation used by
// every other part of the VACSEM reproduction: benchmark generators,
// logic-synthesis passes, the word-parallel simulator, the approximation
// miters and the circuit-aware CNF encoder.
//
// A Circuit is a DAG of Nodes identified by dense integer ids. Node 0 is
// always the constant-0 node. Builders (AddInput, AddGate, ...) keep the
// node list in topological order: every fanin id is strictly smaller than
// the id of the node that uses it. Parsers that cannot guarantee this call
// Normalize, which re-sorts the nodes topologically.
package circuit

import (
	"fmt"
	"slices"
	"sort"
)

// Kind enumerates the supported node functions.
type Kind uint8

// Node kinds. Const0 is the constant-0 source (node id 0 in every circuit).
// Input nodes have no fanins. Buf and Not take one fanin; And through Xnor
// take two; Mux takes three (select, then-0, then-1) and Maj takes three.
const (
	Const0 Kind = iota
	Input
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Mux // Mux(s, a, b) = b if s else a
	Maj // Maj(a, b, c) = at least two of a, b, c
	numKinds
)

var kindNames = [numKinds]string{
	"const0", "input", "buf", "not", "and", "nand", "or", "nor",
	"xor", "xnor", "mux", "maj",
}

// String returns the lower-case mnemonic of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FaninCount returns the number of fanins a node of this kind must have.
func (k Kind) FaninCount() int {
	switch k {
	case Const0, Input:
		return 0
	case Buf, Not:
		return 1
	case Mux, Maj:
		return 3
	default:
		return 2
	}
}

// IsGate reports whether the kind is a logic gate (has fanins).
func (k Kind) IsGate() bool { return k != Const0 && k != Input }

// Eval computes the Boolean function of the kind on scalar inputs.
func (k Kind) Eval(in []bool) bool {
	switch k {
	case Const0:
		return false
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		return in[0] && in[1]
	case Nand:
		return !(in[0] && in[1])
	case Or:
		return in[0] || in[1]
	case Nor:
		return !(in[0] || in[1])
	case Xor:
		return in[0] != in[1]
	case Xnor:
		return in[0] == in[1]
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	case Maj:
		n := 0
		for _, b := range in {
			if b {
				n++
			}
		}
		return n >= 2
	default:
		panic("circuit: Eval on " + k.String())
	}
}

// EvalWord computes the function of the kind on 64 patterns at once.
// The slice holds one 64-bit simulation word per fanin.
func (k Kind) EvalWord(in []uint64) uint64 {
	switch k {
	case Const0:
		return 0
	case Buf:
		return in[0]
	case Not:
		return ^in[0]
	case And:
		return in[0] & in[1]
	case Nand:
		return ^(in[0] & in[1])
	case Or:
		return in[0] | in[1]
	case Nor:
		return ^(in[0] | in[1])
	case Xor:
		return in[0] ^ in[1]
	case Xnor:
		return ^(in[0] ^ in[1])
	case Mux:
		return (in[0] & in[2]) | (^in[0] & in[1])
	case Maj:
		return (in[0] & in[1]) | (in[0] & in[2]) | (in[1] & in[2])
	default:
		panic("circuit: EvalWord on " + k.String())
	}
}

// Node is a single vertex of the netlist DAG.
type Node struct {
	Kind   Kind
	Fanins []int
	Name   string // optional; inputs and outputs usually carry names
}

// Circuit is a combinational gate-level netlist.
//
// Nodes[0] is always the Const0 node. Inputs lists the primary-input node
// ids in declaration order, Outputs the primary-output node ids (an output
// may be any node, including an input or the constant).
type Circuit struct {
	Name    string
	Nodes   []Node
	Inputs  []int
	Outputs []int

	outputNames []string
}

// New returns an empty circuit containing only the constant-0 node.
func New(name string) *Circuit {
	return &Circuit{
		Name:  name,
		Nodes: []Node{{Kind: Const0}},
	}
}

// NumNodes returns the total number of nodes, including Const0 and inputs.
func (c *Circuit) NumNodes() int { return len(c.Nodes) }

// NumInputs returns the number of primary inputs.
func (c *Circuit) NumInputs() int { return len(c.Inputs) }

// NumOutputs returns the number of primary outputs.
func (c *Circuit) NumOutputs() int { return len(c.Outputs) }

// NumGates returns the number of logic gates (excluding inputs, the
// constant node, and buffers, which are wiring artifacts).
func (c *Circuit) NumGates() int {
	n := 0
	for _, nd := range c.Nodes {
		if nd.Kind.IsGate() && nd.Kind != Buf {
			n++
		}
	}
	return n
}

// AddInput appends a new primary input and returns its node id.
func (c *Circuit) AddInput(name string) int {
	id := len(c.Nodes)
	c.Nodes = append(c.Nodes, Node{Kind: Input, Name: name})
	c.Inputs = append(c.Inputs, id)
	return id
}

// AddGate appends a gate of the given kind and returns its node id.
// It panics if the fanin count does not match the kind or if a fanin id
// is out of range (not yet defined), preserving topological order.
func (c *Circuit) AddGate(k Kind, fanins ...int) int {
	if !k.IsGate() {
		panic("circuit: AddGate with non-gate kind " + k.String())
	}
	if len(fanins) != k.FaninCount() {
		panic(fmt.Sprintf("circuit: %s needs %d fanins, got %d", k, k.FaninCount(), len(fanins)))
	}
	id := len(c.Nodes)
	for _, f := range fanins {
		if f < 0 || f >= id {
			panic(fmt.Sprintf("circuit: fanin %d out of range for new node %d", f, id))
		}
	}
	c.Nodes = append(c.Nodes, Node{Kind: k, Fanins: append([]int(nil), fanins...)})
	return id
}

// Const1 returns a node that is constant 1, creating a Not of Const0 on
// first use.
func (c *Circuit) Const1() int {
	for id, nd := range c.Nodes {
		if nd.Kind == Not && nd.Fanins[0] == 0 {
			return id
		}
	}
	return c.AddGate(Not, 0)
}

// SetOutputs replaces the primary-output list.
func (c *Circuit) SetOutputs(ids ...int) {
	for _, id := range ids {
		if id < 0 || id >= len(c.Nodes) {
			panic(fmt.Sprintf("circuit: output id %d out of range", id))
		}
	}
	c.Outputs = append(c.Outputs[:0], ids...)
}

// ClearOutputs removes every primary output (and its name), keeping the
// logic intact. Builders that anchor temporary outputs through a
// synthesis pass use it to re-purpose the circuit afterwards.
func (c *Circuit) ClearOutputs() {
	c.Outputs = c.Outputs[:0]
	c.outputNames = c.outputNames[:0]
}

// AddOutput appends a primary output with an optional name.
func (c *Circuit) AddOutput(id int, name string) {
	if id < 0 || id >= len(c.Nodes) {
		panic(fmt.Sprintf("circuit: output id %d out of range", id))
	}
	for len(c.outputNames) < len(c.Outputs) {
		c.outputNames = append(c.outputNames, "")
	}
	c.Outputs = append(c.Outputs, id)
	c.outputNames = append(c.outputNames, name)
}

// OutputName returns the name attached to the i-th output, or a generated
// "po<i>" placeholder when none was set.
func (c *Circuit) OutputName(i int) string {
	if i < len(c.outputNames) && c.outputNames[i] != "" {
		return c.outputNames[i]
	}
	return fmt.Sprintf("po%d", i)
}

// SetOutputName names the i-th output.
func (c *Circuit) SetOutputName(i int, name string) {
	for len(c.outputNames) < len(c.Outputs) {
		c.outputNames = append(c.outputNames, "")
	}
	c.outputNames[i] = name
}

// Clone returns a deep copy of the circuit.
func (c *Circuit) Clone() *Circuit {
	cp := &Circuit{
		Name:        c.Name,
		Nodes:       make([]Node, len(c.Nodes)),
		Inputs:      append([]int(nil), c.Inputs...),
		Outputs:     append([]int(nil), c.Outputs...),
		outputNames: append([]string(nil), c.outputNames...),
	}
	for i, nd := range c.Nodes {
		cp.Nodes[i] = Node{Kind: nd.Kind, Name: nd.Name}
		if nd.Fanins != nil {
			cp.Nodes[i].Fanins = append([]int(nil), nd.Fanins...)
		}
	}
	return cp
}

// Validate checks structural invariants: node 0 is Const0, fanin counts
// match kinds, fanin ids precede their users (topological order), input
// ids are Input nodes, and output ids are in range.
func (c *Circuit) Validate() error {
	if len(c.Nodes) == 0 || c.Nodes[0].Kind != Const0 {
		return fmt.Errorf("circuit %q: node 0 must be const0", c.Name)
	}
	for id, nd := range c.Nodes {
		if id > 0 && nd.Kind == Const0 {
			return fmt.Errorf("circuit %q: node %d: const0 duplicated", c.Name, id)
		}
		if len(nd.Fanins) != nd.Kind.FaninCount() {
			return fmt.Errorf("circuit %q: node %d (%s): has %d fanins, want %d",
				c.Name, id, nd.Kind, len(nd.Fanins), nd.Kind.FaninCount())
		}
		for _, f := range nd.Fanins {
			if f < 0 || f >= id {
				return fmt.Errorf("circuit %q: node %d (%s): fanin %d not topologically earlier",
					c.Name, id, nd.Kind, f)
			}
		}
	}
	for _, id := range c.Inputs {
		if id <= 0 || id >= len(c.Nodes) || c.Nodes[id].Kind != Input {
			return fmt.Errorf("circuit %q: input id %d is not an Input node", c.Name, id)
		}
	}
	seen := make(map[int]bool, len(c.Inputs))
	for _, id := range c.Inputs {
		if seen[id] {
			return fmt.Errorf("circuit %q: input id %d listed twice", c.Name, id)
		}
		seen[id] = true
	}
	nInputNodes := 0
	for _, nd := range c.Nodes {
		if nd.Kind == Input {
			nInputNodes++
		}
	}
	if nInputNodes != len(c.Inputs) {
		return fmt.Errorf("circuit %q: %d Input nodes but %d registered inputs",
			c.Name, nInputNodes, len(c.Inputs))
	}
	for _, id := range c.Outputs {
		if id < 0 || id >= len(c.Nodes) {
			return fmt.Errorf("circuit %q: output id %d out of range", c.Name, id)
		}
	}
	return nil
}

// Fanouts returns, for every node, the list of node ids that use it as a
// fanin.
func (c *Circuit) Fanouts() [][]int {
	out := make([][]int, len(c.Nodes))
	for id, nd := range c.Nodes {
		for _, f := range nd.Fanins {
			out[f] = append(out[f], id)
		}
	}
	return out
}

// Levels returns the logic depth of every node (inputs and constants are
// level 0) and the maximum depth of the circuit.
func (c *Circuit) Levels() ([]int, int) {
	lv := make([]int, len(c.Nodes))
	max := 0
	for id, nd := range c.Nodes {
		l := 0
		for _, f := range nd.Fanins {
			if lv[f] >= l {
				l = lv[f] + 1
			}
		}
		lv[id] = l
		if l > max {
			max = l
		}
	}
	return lv, max
}

// Support returns the sorted list of primary-input node ids in the
// transitive fanin of the given roots.
func (c *Circuit) Support(roots ...int) []int {
	mark := make([]bool, len(c.Nodes))
	stack := append([]int(nil), roots...)
	var sup []int
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || mark[id] {
			continue
		}
		mark[id] = true
		nd := &c.Nodes[id]
		if nd.Kind == Input {
			sup = append(sup, id)
			continue
		}
		stack = append(stack, nd.Fanins...)
	}
	sort.Ints(sup)
	return sup
}

// ConeMark marks the transitive fanin (including the roots) of the given
// roots and returns the marks indexed by node id.
func (c *Circuit) ConeMark(roots ...int) []bool {
	mark := make([]bool, len(c.Nodes))
	stack := append([]int(nil), roots...)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if id < 0 || mark[id] {
			continue
		}
		mark[id] = true
		stack = append(stack, c.Nodes[id].Fanins...)
	}
	return mark
}

// ExtractCone returns a new circuit containing only the logic feeding the
// selected outputs of c (by output index), together with the mapping from
// old node ids to new ones (-1 where a node was dropped). Primary inputs
// outside the cone are dropped; the caller must account for them when
// interpreting pattern counts.
func (c *Circuit) ExtractCone(outputIdx ...int) (*Circuit, []int) {
	roots := make([]int, len(outputIdx))
	for i, oi := range outputIdx {
		roots[i] = c.Outputs[oi]
	}
	mark := c.ConeMark(roots...)
	nNodes, nFanins := 0, 0
	for id, m := range mark {
		if m {
			nNodes++
			nFanins += len(c.Nodes[id].Fanins)
		}
	}
	nc := New(c.Name + "_cone")
	nc.Nodes = slices.Grow(nc.Nodes, nNodes)
	// Every kept gate's fanins are carved from one slab (capacity-capped,
	// so appending to one node's fanins cannot overwrite the next).
	slab := make([]int, 0, nFanins)
	old2new := make([]int, len(c.Nodes))
	for i := range old2new {
		old2new[i] = -1
	}
	old2new[0] = 0
	for id := 1; id < len(c.Nodes); id++ {
		if !mark[id] {
			continue
		}
		nd := &c.Nodes[id]
		if nd.Kind == Input {
			old2new[id] = nc.AddInput(nd.Name)
			continue
		}
		// Fanins were mapped first (ids are topological), so the new
		// node's fanins precede it and the cone stays topologically sorted.
		start := len(slab)
		for _, f := range nd.Fanins {
			slab = append(slab, old2new[f])
		}
		old2new[id] = len(nc.Nodes)
		nc.Nodes = append(nc.Nodes, Node{Kind: nd.Kind, Fanins: slab[start:len(slab):len(slab)]})
	}
	for i, oi := range outputIdx {
		nc.AddOutput(old2new[roots[i]], c.OutputName(oi))
	}
	return nc, old2new
}

// Append copies all logic of src into dst, mapping src's primary inputs to
// the dst node ids given in inputMap (len(inputMap) == src.NumInputs()).
// It returns the dst node ids corresponding to src's outputs.
func Append(dst, src *Circuit, inputMap []int) []int {
	if len(inputMap) != len(src.Inputs) {
		panic(fmt.Sprintf("circuit: Append input map has %d entries, want %d",
			len(inputMap), len(src.Inputs)))
	}
	old2new := make([]int, len(src.Nodes))
	for i := range old2new {
		old2new[i] = -1
	}
	old2new[0] = 0
	for i, id := range src.Inputs {
		old2new[id] = inputMap[i]
	}
	var buf [3]int // AddGate copies its fanins, so one buffer serves every gate
	for id := 1; id < len(src.Nodes); id++ {
		nd := &src.Nodes[id]
		if nd.Kind == Input {
			continue
		}
		fi := buf[:len(nd.Fanins)]
		for j, f := range nd.Fanins {
			if old2new[f] < 0 {
				panic("circuit: Append encountered unmapped fanin")
			}
			fi[j] = old2new[f]
		}
		old2new[id] = dst.AddGate(nd.Kind, fi...)
	}
	outs := make([]int, len(src.Outputs))
	for i, o := range src.Outputs {
		outs[i] = old2new[o]
		if outs[i] < 0 {
			panic("circuit: Append output maps to dropped node")
		}
	}
	return outs
}

// Stats summarizes a circuit for reporting.
type Stats struct {
	Name    string
	Inputs  int
	Outputs int
	Nodes   int // logic gates, excluding const/input/buf
	Depth   int
	ByKind  map[Kind]int
}

// Stat computes the circuit statistics.
func (c *Circuit) Stat() Stats {
	s := Stats{
		Name:    c.Name,
		Inputs:  len(c.Inputs),
		Outputs: len(c.Outputs),
		ByKind:  make(map[Kind]int),
	}
	for _, nd := range c.Nodes {
		s.ByKind[nd.Kind]++
		if nd.Kind.IsGate() && nd.Kind != Buf {
			s.Nodes++
		}
	}
	_, s.Depth = c.Levels()
	return s
}

// String implements fmt.Stringer with a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d nodes, depth %d",
		s.Name, s.Inputs, s.Outputs, s.Nodes, s.Depth)
}

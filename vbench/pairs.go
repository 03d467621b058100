package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"vacsem"
	"vacsem/internal/serve"
)

// pair is the input of one verification request: a circuit pair, the
// metrics asked for, and the reference values they must come back as.
type pair struct {
	// name is unique per distinct circuit pair; class names the
	// unpermuted pair this one relabels (equal to name when unpermuted).
	// A consistent input permutation of both circuits is a bijection on
	// input patterns, so every metric value is a property of the class.
	name, class   string
	metrics       []string
	exact, approx *vacsem.Circuit
	// exactBLIF and approxBLIF are what a request carries.
	exactBLIF, approxBLIF string
	// ref holds the reference values ("num/den"), one per metric.
	ref []string
	// warm marks a serve-store pair the store was warmed with in setup;
	// nonTrivial is then the number of its tasks the store must serve.
	warm       bool
	nonTrivial int
	// body is the encoded POST /v1/verify request.
	body []byte
}

func newPair(name, class string, metrics []string, exact, approx *vacsem.Circuit) (*pair, error) {
	var eb, ab strings.Builder
	if err := vacsem.WriteBLIF(&eb, exact); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := vacsem.WriteBLIF(&ab, approx); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	p := &pair{
		name: name, class: class, metrics: metrics,
		exact: exact, approx: approx,
		exactBLIF: eb.String(), approxBLIF: ab.String(),
	}
	body, err := json.Marshal(serve.VerifyRequest{ExactBLIF: p.exactBLIF, ApproxBLIF: p.approxBLIF, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	p.body = body
	return p, nil
}

// specs returns the pair's metrics as session specs.
func (p *pair) specs() []vacsem.MetricSpec {
	out := make([]vacsem.MetricSpec, len(p.metrics))
	for i, m := range p.metrics {
		out[i], _ = vacsem.MetricSpecByName(m, nil) // names are the fixed ones below
	}
	return out
}

// loaPair is an n-bit ripple-carry adder against its lower-OR
// approximation with k approximate bits, optionally with both circuits'
// inputs permuted by perm (input position i holds original input
// perm[i]).
func loaPair(n, k int, metrics []string, perm []int, suffix string) (*pair, error) {
	class := fmt.Sprintf("adder%d-loa%d", n, k)
	exact, approx := vacsem.RippleCarryAdder(n), vacsem.LowerORAdder(n, k)
	if perm != nil {
		exact, approx = permuted(exact, perm), permuted(approx, perm)
	}
	return newPair(class+suffix, class, metrics, exact, approx)
}

// permuted returns a copy of c whose input i is c's input perm[i]; the
// inputs keep their names and the outputs their order.
func permuted(c *vacsem.Circuit, perm []int) *vacsem.Circuit {
	d := vacsem.NewCircuit(c.Name)
	ids := make([]int, c.NumInputs())
	for _, src := range perm {
		ids[src] = d.AddInput(c.Nodes[c.Inputs[src]].Name)
	}
	for j, o := range vacsem.AppendCircuit(d, c, ids) {
		d.AddOutput(o, c.OutputName(j))
	}
	return d
}

// sequence returns n indexes into a pool of the given size in seeded
// order, each index exactly n/size times (n is a multiple of size), so
// every seed issues the same mix.
func sequence(rng *rand.Rand, size, n int) []int {
	seq := make([]int, n)
	for i := range seq {
		seq[i] = i % size
	}
	rng.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return seq
}

// requestCount sizes a run: seconds times the workload's nominal rate,
// at least minRequests, rounded up to a multiple of unit. The nominal
// rate is a constant, so the count never depends on measured speed.
func requestCount(seconds int, rate float64, unit int) int {
	n := int(float64(seconds) * rate)
	if n < minRequests {
		n = minRequests
	}
	return (n + unit - 1) / unit * unit
}

// minRequests keeps at least ten samples beyond p90.
const minRequests = 100

// describeLoad prints the run's load so two runs can be shown to have
// issued the same one: the request count, the warm/cold split, a digest
// of the exact request sequence, and a digest of the class mix (equal
// across seeds when the mix is).
func describeLoad(reqs []*pair) {
	order, mix := sha256.New(), map[string]int{}
	warm := 0
	for _, p := range reqs {
		fmt.Fprintf(order, "%s\x00%s\x00%s\x00", p.exactBLIF, p.approxBLIF, strings.Join(p.metrics, ","))
		mix[p.class]++
		if p.warm {
			warm++
		}
	}
	classes := make([]string, 0, len(mix))
	for c, n := range mix {
		classes = append(classes, fmt.Sprintf("%s=%d", c, n))
	}
	sort.Strings(classes)
	mixSum := sha256.Sum256([]byte(strings.Join(classes, " ")))
	fmt.Printf("load: requests=%d warm=%d cold=%d classes=%d sequence=%s mix=%s\n",
		len(reqs), warm, len(reqs)-warm, len(mix),
		hex.EncodeToString(order.Sum(nil))[:16], hex.EncodeToString(mixSum[:])[:16])
}

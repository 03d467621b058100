package counter_test

import (
	"context"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/plan"
)

// BenchmarkCounterAdderMED times the counter alone on the search-bound
// workload: the non-trivial tasks of a 10-bit ripple-carry adder vs its
// lower-OR approximation (k = 4) MED session, read from BLIF, counted
// serially in VACSEM mode with one private component cache per
// iteration — the way one session's solvers share it. Plan building and
// CNF encoding stay outside the timer.
func BenchmarkCounterAdderMED(b *testing.B) {
	ctx := context.Background()
	exact := viaBLIF(b, gen.RippleCarryAdder(10))
	approx := viaBLIF(b, als.LowerORAdder(10, 4))
	pl, err := plan.Build(ctx, exact, approx, []plan.Spec{{Kind: plan.MED}}, false)
	if err != nil {
		b.Fatal(err)
	}
	var formulas []*cnf.Formula
	for _, task := range pl.Tasks {
		if !nonTrivial(task.Sub) {
			continue
		}
		f, err := cnf.Encode(task.Sub)
		if err != nil {
			b.Fatal(err)
		}
		formulas = append(formulas, f)
	}
	if len(formulas) == 0 {
		b.Fatal("no non-trivial tasks")
	}
	var st counter.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache := counter.NewCache(0, 0)
		for j, f := range formulas {
			s := counter.New(f, counter.Config{EnableSim: true, Cache: cache, CacheOwner: int32(j) + 1})
			if _, err := s.CountCtx(ctx); err != nil {
				b.Fatal(err)
			}
			st.Add(s.Stats())
		}
	}
	b.ReportMetric(float64(st.Decisions)/float64(b.N), "decisions/op")
	b.ReportMetric(float64(st.Propagations)/float64(b.N), "propagations/op")
}

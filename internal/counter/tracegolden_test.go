package counter_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/plan"
)

// traceGolden pins one counted task: its label, count and every Stats
// field except the two propagation counters, plus the most literals
// propagation may assign. Work-saving changes to the search core may
// lower Propagations and XorPropagations; anything else moving means
// the search itself changed.
type traceGolden struct {
	line    string
	maxProp uint64
}

// TestSearchTraceGolden pins the search the counter makes, task by task:
// adder8 vs LOA k = 2–6 MED read from BLIF (counted serially, all five
// sessions through one shared component cache), a truncated mult6 ER
// session, and the CNF+XOR formula that drives the Gauss derived-unit
// path. On a mismatch it prints the replacement table row.
func TestSearchTraceGolden(t *testing.T) {
	got := searchTrace(t)
	if len(got) != len(searchTraceWant) {
		t.Errorf("traced %d tasks, want %d", len(got), len(searchTraceWant))
	}
	for i, g := range got {
		if i < len(searchTraceWant) {
			w := searchTraceWant[i]
			if g.line == w.line && g.maxProp <= w.maxProp {
				continue
			}
			t.Errorf("task %d:\n got %s propagations=%d\nwant %s propagations<=%d",
				i, g.line, g.maxProp, w.line, w.maxProp)
		}
		t.Logf("row: {%q, %d},", g.line, g.maxProp)
	}
}

func searchTrace(t *testing.T) []traceGolden {
	ctx := context.Background()
	var out []traceGolden
	record := func(label string, f *cnf.Formula, cfg counter.Config) {
		s := counter.New(f, cfg)
		n, err := s.CountCtx(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, traceGolden{label + " " + n.String() + statsLine(s.Stats()), s.Stats().Propagations})
	}
	session := func(name string, exact, approx *circuit.Circuit, kind plan.Kind, cfg counter.Config) {
		pl, err := plan.Build(ctx, exact, approx, []plan.Spec{{Kind: kind}}, false)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range pl.Tasks {
			if !nonTrivial(task.Sub) {
				continue
			}
			f, err := cnf.Encode(task.Sub)
			if err != nil {
				t.Fatal(err)
			}
			cfg.CacheOwner = int32(len(out)) + 1
			record(name+"/"+task.Label, f, cfg)
		}
	}
	exact := viaBLIF(t, gen.RippleCarryAdder(8))
	shared := counter.Config{EnableSim: true, Cache: counter.NewCache(0, 0)}
	for k := 2; k <= 6; k++ {
		session(fmt.Sprintf("adder8-loa%d", k), exact, viaBLIF(t, als.LowerORAdder(8, k)), plan.MED, shared)
	}
	// Simulation would count the whole multiplier miter at once; capping
	// it at 8 free inputs makes the search branch first.
	session("mult6-trunc3", gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 3), plan.ER,
		counter.Config{EnableSim: true, MaxSimVars: 8})
	f, err := cnf.ParseDIMACS(strings.NewReader(gaussUnitsDIMACS))
	if err != nil {
		t.Fatal(err)
	}
	record("gauss-units", f, counter.Config{})
	return out
}

// statsLine formats every non-zero Stats field except Propagations and
// XorPropagations, so a new field is pinned without editing this test.
func statsLine(st counter.Stats) string {
	var b strings.Builder
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		if name == "Propagations" || name == "XorPropagations" || v.Field(i).Uint() == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d", name, v.Field(i).Uint())
	}
	return b.String()
}

// searchTraceWant pins the search. Each propagation bound is the count
// of a search that probed every candidate phase.
var searchTraceWant = []traceGolden{
	{"adder8-loa2/MED/f1 1 FailedLiterals=2 Learned=2", 23},
	{"adder8-loa2/MED/f2 12288 Decisions=38 Components=63 CacheHits=8 CacheStores=55 SimCalls=17 SimRejected=38 SimPatterns=67072 FailedLiterals=65 Learned=58", 24303},
	{"adder8-loa2/MED/f3 0 Decisions=28 Components=42 CacheHits=2 CacheStores=40 SimCalls=8 SimRejected=28 SimPatterns=71744 FailedLiterals=74 Learned=60 GaussReductions=4", 19492},
	{"adder8-loa2/MED/f4 0 Decisions=18 Components=34 CacheHits=1 CacheStores=33 SimCalls=10 SimRejected=18 SimPatterns=92160 FailedLiterals=51 Learned=45 GaussReductions=5", 22223},
	{"adder8-loa2/MED/f5 0 Decisions=16 Components=28 CacheHits=1 CacheStores=27 CacheCrossHits=1 SimCalls=6 SimRejected=16 SimPatterns=49728 FailedLiterals=62 Learned=64 GaussReductions=5", 16927},
	{"adder8-loa2/MED/f6 0 Decisions=14 Components=33 CacheHits=2 CacheStores=31 CacheCrossHits=1 SimCalls=9 SimRejected=14 SimPatterns=102720 FailedLiterals=57 Learned=57 GaussReductions=8", 19854},
	{"adder8-loa2/MED/f7 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 869},
	{"adder8-loa2/MED/f8 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 917},
	{"adder8-loa2/MED/f9 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 971},
	{"adder8-loa3/MED/f1 1 FailedLiterals=2 Learned=2", 23},
	{"adder8-loa3/MED/f2 18432 Decisions=71 Components=165 CacheHits=67 CacheStores=98 CacheCrossHits=6 SimCalls=27 SimRejected=71 SimPatterns=76928 FailedLiterals=62 Learned=58", 46085},
	{"adder8-loa3/MED/f3 9216 Decisions=32 Components=53 CacheHits=8 CacheStores=45 SimCalls=13 SimRejected=32 SimPatterns=70016 FailedLiterals=78 Learned=66", 25484},
	{"adder8-loa3/MED/f4 0 Decisions=15 Components=22 CacheStores=22 SimCalls=5 SimRejected=15 SimPatterns=65536 FailedLiterals=53 Learned=50 GaussReductions=2", 13927},
	{"adder8-loa3/MED/f5 0 Decisions=10 Components=25 CacheHits=4 CacheStores=21 CacheCrossHits=1 SimCalls=5 SimRejected=10 SimPatterns=49280 FailedLiterals=43 Learned=43 GaussReductions=6", 15837},
	{"adder8-loa3/MED/f6 0 Decisions=12 Components=27 CacheHits=3 CacheStores=24 CacheCrossHits=2 SimCalls=6 SimRejected=12 SimPatterns=69888 FailedLiterals=52 Learned=52 GaussReductions=6", 15951},
	{"adder8-loa3/MED/f7 0 Decisions=13 Components=28 CacheHits=1 CacheStores=27 CacheCrossHits=1 SimCalls=6 SimRejected=13 SimPatterns=98304 FailedLiterals=45 Learned=45 GaussReductions=8", 13002},
	{"adder8-loa3/MED/f8 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 918},
	{"adder8-loa3/MED/f9 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 972},
	{"adder8-loa4/MED/f1 1 FailedLiterals=2 Learned=2", 23},
	{"adder8-loa4/MED/f2 18432 Decisions=62 Components=156 CacheHits=63 CacheStores=93 CacheCrossHits=38 SimCalls=31 SimRejected=62 SimPatterns=69768 FailedLiterals=64 Learned=65", 42434},
	{"adder8-loa4/MED/f3 19968 Decisions=44 Components=109 CacheHits=46 CacheStores=63 CacheCrossHits=27 SimCalls=19 SimRejected=44 SimPatterns=60240 FailedLiterals=59 Learned=52", 40370},
	{"adder8-loa4/MED/f4 6912 Decisions=22 Components=36 CacheHits=3 CacheStores=33 SimCalls=11 SimRejected=22 SimPatterns=64256 FailedLiterals=70 Learned=70", 21171},
	{"adder8-loa4/MED/f5 0 Decisions=8 Components=17 CacheHits=1 CacheStores=16 SimCalls=4 SimRejected=8 SimPatterns=49408 FailedLiterals=45 Learned=45 GaussReductions=4", 12995},
	{"adder8-loa4/MED/f6 0 Decisions=10 Components=21 CacheHits=3 CacheStores=18 CacheCrossHits=2 SimCalls=4 SimRejected=10 SimPatterns=37120 FailedLiterals=50 Learned=50 GaussReductions=4", 14053},
	{"adder8-loa4/MED/f7 0 Decisions=11 Components=22 CacheHits=1 CacheStores=21 CacheCrossHits=1 SimCalls=4 SimRejected=11 SimPatterns=65536 FailedLiterals=43 Learned=43 GaussReductions=6", 10842},
	{"adder8-loa4/MED/f8 0 Decisions=10 Components=23 CacheStores=23 SimCalls=6 SimRejected=10 SimPatterns=98304 FailedLiterals=23 Learned=23 GaussReductions=7", 13840},
	{"adder8-loa4/MED/f9 0 Components=1 CacheStores=1 SimCalls=1 SimPatterns=65536", 973},
	{"adder8-loa5/MED/f1 1 FailedLiterals=2 Learned=2", 23},
	{"adder8-loa5/MED/f2 18432 Decisions=57 Components=138 CacheHits=56 CacheStores=82 CacheCrossHits=44 SimCalls=25 SimRejected=57 SimPatterns=44928 FailedLiterals=64 Learned=68", 38223},
	{"adder8-loa5/MED/f3 19968 Decisions=49 Components=127 CacheHits=55 CacheStores=72 CacheCrossHits=47 SimCalls=23 SimRejected=49 SimPatterns=54848 FailedLiterals=60 Learned=58", 42169},
	{"adder8-loa5/MED/f4 21120 Decisions=24 Components=65 CacheHits=27 CacheStores=38 CacheCrossHits=18 SimCalls=14 SimRejected=24 SimPatterns=49088 FailedLiterals=50 Learned=47", 27164},
	{"adder8-loa5/MED/f5 5184 Decisions=7 Components=12 CacheHits=1 CacheStores=11 SimCalls=4 SimRejected=7 SimPatterns=34816 FailedLiterals=52 Learned=52", 10727},
	{"adder8-loa5/MED/f6 0 Decisions=8 Components=13 CacheStores=13 SimCalls=3 SimRejected=8 SimPatterns=36864 FailedLiterals=51 Learned=51 GaussReductions=2", 10119},
	{"adder8-loa5/MED/f7 0 Decisions=9 Components=16 CacheStores=16 SimCalls=3 SimRejected=9 SimPatterns=33792 FailedLiterals=41 Learned=41 GaussReductions=4", 9032},
	{"adder8-loa5/MED/f8 0 Decisions=8 Components=17 CacheStores=17 SimCalls=4 SimRejected=8 SimPatterns=65536 FailedLiterals=21 Learned=21 GaussReductions=5", 10642},
	{"adder8-loa5/MED/f9 0 Decisions=4 Components=8 CacheStores=8 SimCalls=2 SimRejected=4 SimPatterns=32768 FailedLiterals=10 Learned=10 GaussReductions=2", 4438},
	{"adder8-loa6/MED/f1 1 FailedLiterals=2 Learned=2", 23},
	{"adder8-loa6/MED/f2 18432 Decisions=72 Components=176 CacheHits=80 CacheStores=96 CacheCrossHits=63 SimCalls=24 SimRejected=72 SimPatterns=20864 FailedLiterals=61 Learned=65", 37511},
	{"adder8-loa6/MED/f3 19968 Decisions=55 Components=126 CacheHits=45 CacheStores=81 CacheCrossHits=40 SimCalls=26 SimRejected=55 SimPatterns=34304 FailedLiterals=69 Learned=68", 45703},
	{"adder8-loa6/MED/f4 21120 Decisions=42 Components=99 CacheHits=44 CacheStores=55 CacheCrossHits=35 SimCalls=13 SimRejected=42 SimPatterns=35584 FailedLiterals=71 Learned=75", 34523},
	{"adder8-loa6/MED/f5 21984 Decisions=21 Components=52 CacheHits=20 CacheStores=32 CacheCrossHits=15 SimCalls=11 SimRejected=21 SimPatterns=27008 FailedLiterals=49 Learned=49", 22699},
	{"adder8-loa6/MED/f6 3888 Decisions=19 Components=26 CacheHits=2 CacheStores=24 CacheCrossHits=2 SimCalls=5 SimRejected=19 SimPatterns=23552 FailedLiterals=49 Learned=55", 13934},
	{"adder8-loa6/MED/f7 0 Decisions=7 Components=12 CacheStores=12 SimCalls=3 SimRejected=7 SimPatterns=17424 FailedLiterals=31 Learned=31 GaussReductions=2", 7027},
	{"adder8-loa6/MED/f8 0 Decisions=6 Components=11 CacheStores=11 SimCalls=2 SimRejected=6 SimPatterns=32768 FailedLiterals=19 Learned=19 GaussReductions=3", 7731},
	{"adder8-loa6/MED/f9 0 Decisions=3 Components=5 CacheStores=5 SimCalls=1 SimRejected=3 SimPatterns=16384 FailedLiterals=10 Learned=10 GaussReductions=1", 3578},
	{"mult6-trunc3/ER/f1 2816 Decisions=15 Components=42 CacheStores=42 SimCalls=16 SimRejected=15 SimPatterns=4096 FailedLiterals=1 Learned=1 GaussReductions=11", 28436},
	{"gauss-units 328 Decisions=7 Components=10 CacheHits=2 CacheStores=8 FailedLiterals=1 Learned=1 GaussReductions=1", 90},
}

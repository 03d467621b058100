package counter

import (
	"encoding/hex"
	"testing"

	"vacsem/internal/cnf"
)

// TestCacheKeyGoldenBytes pins the exact cache-key bytes of a fixed
// residual with clauses and XOR rows. Store snapshots persist these
// keys, so any change to their serialization — ordering, headers, the
// XOR section — breaks stored entries and must show up here first.
// The residual covers clauses of equal length, a clause shortened by a
// false literal, a satisfied clause, rows with equal headers that sort
// by their ranks, and a row whose effective rhs flips under the
// assignment.
func TestCacheKeyGoldenBytes(t *testing.T) {
	f := &cnf.Formula{
		NumVars: 9,
		Clauses: []cnf.Clause{
			{1, -2, 3},
			{-3, 4, 9},
			{2, 5, -6, 7},
			{6, -8, -9},
			{1, 8, -4},
			{-5, -7},
			{2, 6},
		},
		Xors: []cnf.XorClause{
			{Vars: []int32{2, 4, 6}, Rhs: true},
			{Vars: []int32{5, 7, 8}, Rhs: false},
			{Vars: []int32{1, 3, 7, 9}, Rhs: true},
			{Vars: []int32{3, 8}, Rhs: false},
		},
	}
	s := New(f, Config{DisableLearning: true})
	s.reset()
	s.curLevel = 1
	for _, lit := range []int32{-1, 9} {
		if !s.assertLit(lit, reasonDecision) {
			t.Fatalf("asserting %d conflicted", lit)
		}
	}
	if !s.propagate() {
		t.Fatal("setup propagation conflicted")
	}
	comps, free := s.findComponents(varsUpTo(9))
	if len(comps) != 1 || free != 0 {
		t.Fatalf("got %d components, %d free vars; want 1, 0", len(comps), free)
	}
	const want = "040006090a02000802010202050c02070b02080d040401050401060603050607000204"
	if got := hex.EncodeToString([]byte(s.cacheKey(comps[0]))); got != want {
		t.Fatalf("cache key bytes changed:\n got %s\nwant %s", got, want)
	}
	// The key is a pure function of the residual: a second call reusing
	// the solver's scratch buffers yields the same bytes.
	if got := hex.EncodeToString([]byte(s.cacheKey(comps[0]))); got != want {
		t.Fatalf("second cacheKey call differs: %s", got)
	}
}

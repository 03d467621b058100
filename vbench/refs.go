package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"

	"vacsem"
)

// defaultSeed is the seed whose reference values are committed
// (refs.json); every other seed computes its references at start-up,
// outside the timed phase.
const defaultSeed = 1

//go:embed refs.json
var committedRefs []byte

// refKey keys the committed table: a pair class and its metrics.
func refKey(p *pair) string { return p.class + ":" + strings.Join(p.metrics, ",") }

// attachReferences fills every pair's reference values. At the default
// seed they come from the committed table; at any other seed the
// reference backend computes them from the very circuits the requests
// carry. The reference backend is always a different exact backend
// from the one measured (the default vacsem counter).
func attachReferences(ctx context.Context, seed int64, pairs []*pair, method vacsem.Method) error {
	if seed == defaultSeed {
		var table map[string][]string
		if err := json.Unmarshal(committedRefs, &table); err != nil {
			return fmt.Errorf("committed references: %w", err)
		}
		for _, p := range pairs {
			v, ok := table[refKey(p)]
			if !ok {
				return fmt.Errorf("no committed reference for %s", refKey(p))
			}
			p.ref = v
		}
		return nil
	}
	for _, p := range pairs {
		v, err := referenceValues(ctx, p, method)
		if err != nil {
			return err
		}
		p.ref = v
	}
	return nil
}

// referenceValues verifies a pair with the reference backend.
func referenceValues(ctx context.Context, p *pair, method vacsem.Method) ([]string, error) {
	sr, err := vacsem.VerifyMetrics(ctx, p.exact, p.approx, p.specs(), vacsem.Options{Method: method})
	if err != nil {
		return nil, fmt.Errorf("reference for %s: %w", p.name, err)
	}
	return values(sr), nil
}

// values lists a session's metric values as exact rationals.
func values(sr *vacsem.SessionResult) []string {
	out := make([]string, len(sr.Results))
	for i, r := range sr.Results {
		out[i] = r.Value.RatString()
	}
	return out
}

func equalValues(got, want []string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// writeReferences computes the reference table of every workload's
// pair classes (the committed refs.json).
func writeReferences(ctx context.Context, path string) error {
	table := map[string][]string{}
	add := func(pairs []*pair, method vacsem.Method) error {
		for _, p := range pairs {
			v, err := referenceValues(ctx, p, method)
			if err != nil {
				return err
			}
			table[refKey(p)] = v
		}
		return nil
	}
	for _, lw := range []*libWorkload{adderMed, multSession} {
		pool, err := lw.pool()
		if err != nil {
			return err
		}
		if err := add(pool, lw.refMethod); err != nil {
			return err
		}
	}
	warm, err := serveWarmPool()
	if err != nil {
		return err
	}
	for _, c := range coldClasses {
		p, err := loaPair(c[0], c[1], serveMetrics, nil, "")
		if err != nil {
			return err
		}
		warm = append(warm, p)
	}
	if err := add(warm, serveRefMethod); err != nil {
		return err
	}
	return writeJSON(path, table)
}

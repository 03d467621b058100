// Command vbench is the repository's end-to-end benchmark. It drives the
// program only through its public surfaces — the root vacsem API, the
// internal packages' exported functions and vacsem-serve's HTTP API —
// and times those calls from its own files.
//
// Usage (run.sh builds the binaries first):
//
//	vbench -workload adder-med -seed 1 -seconds 25 -trace 0
//	vbench -write-refs refs.json
//
// Each workload is one closed loop issuing a fixed number of requests
// (sized from -seconds by a nominal rate compiled into the workload, so
// the load never depends on how fast the program runs). Every request's
// value is checked bit for bit against a reference computed by a
// different exact backend. With -trace 0 the last stdout line reports
// the end-to-end metrics; with -trace 1 it reports the per-layer metrics
// of a separate traced run, whose spans and self times are also written
// as JSON under -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// runDeadline bounds a whole run, so a hang still ends in a prompt exit.
const runDeadline = 165 * time.Second

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds int
	trace   bool
	server  string // vacsem-serve binary
	outDir  string
}

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerReport is the per-layer JSON a traced run writes under -out.
type layerReport struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     host               `json:"host"`
	Metrics  map[string]metric  `json:"metrics"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Coverage float64            `json:"coverage"`
	Replay   string             `json:"replay_digest"`
	Spans    int                `json:"spans"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", defaultSeed, "workload seed")
		seconds   = flag.Int("seconds", 25, "nominal length of the measured phase; sizes the fixed request count")
		trace     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		server    = flag.String("server", ".bench_build/bin/vacsem-serve", "vacsem-serve binary")
		outDir    = flag.String("out", ".bench_build/out", "directory for per-layer JSON and spans")
		writeRefs = flag.String("write-refs", "", "compute every workload's default-seed references and write them to this file")
	)
	flag.Parse()
	// A run takes well under a minute; the deadline only bounds a hang,
	// which then fails the outstanding requests.
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()

	if *writeRefs != "" {
		if err := writeReferences(ctx, *writeRefs); err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "vbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "vbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server, outDir: *outDir}

	h := fingerprint(cfg.server)
	hj, _ := json.Marshal(h)
	fmt.Printf("host: %s\n", hj)

	res, rep, err := w(ctx, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %s: %v\n", *name, err)
		return 1
	}
	if rep != nil {
		rep.Workload, rep.Seed, rep.Host = *name, cfg.seed, h
		if err := writeJSON(filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d-layers.json", *name, cfg.seed)), rep); err != nil {
			fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// workloads maps a workload name to its run: the measured (or traced)
// phase, returning the result line plus, for a traced run, the
// per-layer report. README.md says why each workload exists.
var workloads = map[string]func(ctx context.Context, cfg config) (*result, *layerReport, error){
	"adder-med":    adderMed.run,
	"mult-session": multSession.run,
	"serve-store":  runServeStore,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// writeJSON writes v as indented JSON, creating the directory.
func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

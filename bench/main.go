// Command bench is the repository's benchmark: seven workloads against a
// fixed two-replica cluster, end-to-end metrics with tracing off, per-layer
// metrics from a traced run and probes. README.md describes the load model,
// every metric and how to read the output.
//
//	bash bench/run.sh --workload point_read --seed 7 --seconds 6 --trace 0
//	bash bench/run.sh                      # the whole suite, interleaved rounds
//	bash bench/run.sh -quick               # one round at a tenth of the requests
//	bash bench/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cjdbc/internal/recovery"
)

const (
	outDir        = "bench/out"
	resultsSchema = 1
	defaultSeed   = 1
	suiteRounds   = 5
	minRounds     = 3
)

// workloadResult is one workload's part of results.json.
type workloadResult struct {
	Rounds    int              `json:"rounds"`
	Ops       int              `json:"ops_per_client_per_round"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Problems  []string         `json:"problems,omitempty"`
	EndToEnd  map[string]stat  `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultsFile struct {
	Schema     int                        `json:"schema"`
	NumCPU     int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	GoVersion  string                     `json:"go_version"`
	Seed       int64                      `json:"seed"`
	Scale      float64                    `json:"scale"`
	Clients    int                        `json:"clients"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	name := flag.String("workload", "", "run one workload for -seconds and print the result object the driver reads; empty runs the suite")
	seed := flag.Int64("seed", defaultSeed, "workload seed: the same seed gives the same requests")
	seconds := flag.Int("seconds", 6, "with -workload: how long to measure")
	trace := flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	quick := flag.Bool("quick", false, "suite at one round and a tenth of the requests")
	compare := flag.Bool("compare", false, "compare two results.json files given as arguments against the bounds in BENCHMARK.json")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	// The load model is two clients on two cores; with fewer the clients and
	// the backends' workers would time-share and the numbers mean something
	// else.
	if runtime.NumCPU() < nClients {
		fatal("bench needs at least %d CPUs, found %d", nClients, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(nClients)

	out := &resultsFile{Schema: resultsSchema, NumCPU: runtime.NumCPU(), GOMAXPROCS: nClients,
		GoVersion: runtime.Version(), Seed: *seed, Scale: 1, Clients: nClients,
		Workloads: map[string]*workloadResult{}}
	var failed bool
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		failed = driverRun(os.Stdout, w, *seed, time.Duration(*seconds)*time.Second, *trace != 0, out)
	} else {
		rounds := suiteRounds
		if *quick {
			rounds, out.Scale = 1, 0.1
		}
		failed = suiteRun(os.Stdout, *seed, rounds, out)
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), out); err != nil {
		fatal("%v", err)
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", a...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// roundSeed gives each round of a run its own inputs, all fixed by the run's
// seed.
func roundSeed(seed int64, round int) int64 { return seed*1009 + int64(round) }

func (wr *workloadResult) add(r *roundResult) {
	wr.Rounds++
	wr.Attempted += r.requests
	wr.Failed += r.failed
	wr.Problems = append(wr.Problems, r.problems...)
}

// driverRun is the builder's contract: one workload, measured for about d,
// one JSON object as the last line of standard output. It reports whether
// anything failed.
func driverRun(stdout io.Writer, w *workload, seed int64, d time.Duration, traced bool, out *resultsFile) bool {
	wr := &workloadResult{Ops: w.opsFor(1)}
	out.Workloads[w.name] = wr
	metrics := map[string]value{}
	if traced {
		pl, err := tracedRunOf(w, seed, 1, wr)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		wr.PerLayer = pl
		printLines(stdout, w.name, perLayer, func(n string) float64 { return pl[n].Value })
		metrics = pl
	} else {
		// Rounds are fixed work; as many are run as fit the measuring time,
		// never fewer than minRounds, and set-up is repeated with each, so
		// every reported number is a median over fresh clusters. Set-up is
		// not measuring time, so a wall-clock cap keeps a program that has
		// become much faster per round from setting up hundreds of times.
		var rounds []*roundResult
		var measured time.Duration
		start := time.Now()
		for len(rounds) < minRounds || (measured < d && time.Since(start) < 2*d+5*time.Second) {
			r, err := w.runRound(roundParams{seed: roundSeed(seed, len(rounds)), scale: 1, clients: nClients})
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			wr.add(r)
			rounds = append(rounds, r)
			measured += r.elapsed + time.Duration(r.reintS*float64(time.Second))
		}
		wr.EndToEnd = endToEndOf(w, rounds)
		printLines(stdout, w.name, endToEnd, func(n string) float64 { return wr.EndToEnd[n].Median })
		for n, s := range wr.EndToEnd {
			metrics[n] = value{s.Median, s.Unit}
		}
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
	}
	last, err := json.Marshal(map[string]any{
		"correct": wr.Failed == 0, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": metrics,
	})
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintln(stdout, string(last))
	return wr.Failed != 0
}

// suiteRun runs every workload: end-to-end rounds interleaved round-robin
// across the workloads (the box drifts over tens of seconds, and interleaving
// spreads the drift evenly), then the traced run of each.
func suiteRun(stdout io.Writer, seed int64, rounds int, out *resultsFile) bool {
	perWorkload := make(map[string][]*roundResult)
	for _, w := range workloads {
		out.Workloads[w.name] = &workloadResult{Ops: w.opsFor(out.Scale)}
	}
	// The first round of a process runs on a cold, still growing heap and
	// would be the minimum or maximum of whatever workload came first.
	if _, err := workloads[0].runRound(roundParams{seed: seed, scale: out.Scale / 4, clients: nClients}); err != nil {
		fatal("warm-up: %v", err)
	}
	for r := 0; r < rounds; r++ {
		for _, w := range workloads {
			res, err := w.runRound(roundParams{seed: roundSeed(seed, r), scale: out.Scale, clients: nClients})
			if err != nil {
				fatal("%s: %v", w.name, err)
			}
			out.Workloads[w.name].add(res)
			perWorkload[w.name] = append(perWorkload[w.name], res)
		}
	}
	failed := false
	for _, w := range workloads {
		wr := out.Workloads[w.name]
		wr.EndToEnd = endToEndOf(w, perWorkload[w.name])
		pl, err := tracedRunOf(w, seed, out.Scale, wr)
		if err != nil {
			fatal("%s: %v", w.name, err)
		}
		wr.PerLayer = pl
		for _, d := range endToEnd {
			s := wr.EndToEnd[d.name]
			fmt.Fprintf(stdout, "%s %s %v %s (min %v max %v over %d rounds)\n", w.name, d.name, s.Median, d.unit, s.Min, s.Max, rounds)
		}
		printLines(stdout, w.name, perLayer, func(n string) float64 { return pl[n].Value })
		for _, p := range wr.Problems {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", w.name, p)
		}
		failed = failed || wr.Failed != 0
	}
	return failed
}

// tracedRunOf produces a workload's per-layer table: an ordinary two-client
// round whose counters give the ratios and on whose cluster the probes run,
// then the same stream from one client at a quarter of the requests, once
// plain and once on a cluster built from the tracing wrappers. The spans go
// to bench/out/trace-<workload>.json.
func tracedRunOf(w *workload, seed int64, scale float64, wr *workloadResult) (map[string]value, error) {
	t := &tracedRun{probes: values{}}
	var err error
	t.ordinary, err = w.runRound(roundParams{seed: seed, scale: scale, clients: nClients,
		probe: func(cl *cluster, streams [][]op, dump *recovery.Dump) error {
			return runProbes(w, cl, streams, seed, dump, t.probes)
		}})
	if err != nil {
		return nil, err
	}
	single := roundParams{seed: seed, scale: scale / 2, clients: 1}
	if t.plain, err = w.runRound(single); err != nil {
		return nil, err
	}
	traceOne := func(w *workload) (*roundResult, *tracer, error) {
		p := single
		// A request leaves at most eight spans and a tpcw interaction at most
		// forty; the restore of recovery_reintegrate leaves a few thousand.
		perOp := 8
		if w.gen == nil {
			perOp = 40
		}
		p.tracer = newTracer(perOp*w.opsFor(p.scale) + 1<<16)
		r, err := w.runRound(p)
		return r, p.tracer, err
	}
	var tr *tracer
	if t.traced, tr, err = traceOne(w); err != nil {
		return nil, err
	}
	t.layers = analyze(tr.recorded())
	if err := writeTrace(outDir, w.name, seed, tr); err != nil {
		return nil, err
	}
	rounds := []*roundResult{t.ordinary, t.plain, t.traced}
	if w.wire {
		inproc := *w
		inproc.wire = false
		r, tr2, err := traceOne(&inproc)
		if err != nil {
			return nil, err
		}
		lt := analyze(tr2.recorded())
		t.inproc = &lt
		rounds = append(rounds, r)
	}
	for _, r := range rounds {
		wr.add(r)
	}
	if n := tr.dropped.Load(); n > 0 {
		wr.Failed++
		wr.Problems = append(wr.Problems, fmt.Sprintf("trace buffer too small: %d spans dropped", n))
	}
	v := perLayerOf(t)
	// Layer times must add up: everything a layer did for a request lies
	// inside the request's span.
	if v["trace.unattributed_share"] > 0.03 {
		wr.Failed++
		wr.Problems = append(wr.Problems, fmt.Sprintf("trace.unattributed_share = %.4f, above 0.03", v["trace.unattributed_share"]))
	}
	v["error_share"] = ratio(float64(wr.Failed), float64(wr.Attempted))
	out := make(map[string]value, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = value{v[d.name], d.unit}
	}
	return out, nil
}

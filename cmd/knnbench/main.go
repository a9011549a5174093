// Command knnbench compares the LSH-bucketed kNN join against the
// broadcast-naive exact join on one generated R/S pair, verifies the two
// arms agree bit for bit, and reports wall time plus the cost counters
// (distance computations, candidate pairs, exact fallbacks) per arm.
//
// Usage:
//
//	knnbench -n 100000 -nq 10000 -dim 8 -k 10
//	knnbench -n 100000 -nq 10000 -scan f32 -json
//
// Numbers are recorded in BENCH_PR10.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/kernels"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
)

type armResult struct {
	Name                 string  `json:"name"`
	WallSeconds          float64 `json:"wall_s"`
	DistanceComputations int64   `json:"distance_computations"`
	Candidates           int64   `json:"candidates"`
	Fallbacks            int     `json:"fallbacks"`
	ShuffleBytes         int64   `json:"shuffle_bytes"`
	CompactEvals         int64   `json:"compact_evals,omitempty"`
	CompactRechecks      int64   `json:"compact_rechecks,omitempty"`
}

type report struct {
	Bench   string      `json:"bench"`
	N       int         `json:"n"`
	NQ      int         `json:"nq"`
	Dim     int         `json:"dim"`
	K       int         `json:"k"`
	M       int         `json:"m"`
	Pi      int         `json:"pi"`
	Scan    string      `json:"scan"`
	Workers int         `json:"workers"`
	Arms    []armResult `json:"arms"`
	Speedup float64     `json:"speedup_lsh_vs_naive"`
}

func main() {
	var (
		n        = flag.Int("n", 100000, "base (S) size")
		nq       = flag.Int("nq", 10000, "query (R) size")
		dim      = flag.Int("dim", 8, "dimensionality")
		k        = flag.Int("k", 10, "neighbors per query")
		m        = flag.Int("m", 8, "LSH layouts M")
		pi       = flag.Int("pi", 4, "hash functions per layout")
		accuracy = flag.Float64("accuracy", 0.95, "width-solver target accuracy")
		wFlag    = flag.Float64("w", 0, "pin the LSH slot width (0 = solve)")
		scan     = flag.String("scan", "", "bucket scan precision: f64 (default) or f32")
		seed     = flag.Int64("seed", 1, "generation / layout seed")
		reduces  = flag.Int("reduces", 0, "reduce partitions (0 = one per core)")
		centers  = flag.Int("centers", 64, "blob centers of the generated set")
		jsonOut  = flag.Bool("json", false, "emit one JSON report on stdout")
	)
	flag.Parse()
	if !kernels.ValidScanPrecision(*scan) {
		fatal(fmt.Errorf("unknown -scan %q (want %s or %s)", *scan, kernels.ScanF64, kernels.ScanF32))
	}

	ds := dataset.Blobs("knnbench", *n+*nq, *dim, *centers, 400, 5, *seed)
	R, S, err := dataset.Split(ds, *nq, *seed+1)
	fatal(err)

	cfg := knnjoin.Config{
		M: *m, Pi: *pi, W: *wFlag, Accuracy: *accuracy, Seed: *seed,
		NumReduces: *reduces, ScanPrecision: *scan,
	}
	rep := report{
		Bench: "knnjoin", N: *n, NQ: *nq, Dim: *dim, K: *k,
		M: *m, Pi: *pi, Scan: *scan, Workers: runtime.NumCPU(),
	}

	run := func(name string, f func(*dag.Session) (*knnjoin.Result, error)) *knnjoin.Result {
		sess := dag.NewSession(mapreduce.NewDriver(&mapreduce.LocalEngine{}), dag.Options{})
		start := time.Now()
		res, err := f(sess)
		fatal(err)
		wall := time.Since(start)
		arm := armResult{
			Name:                 name,
			WallSeconds:          wall.Seconds(),
			DistanceComputations: res.Stats.DistanceComputations,
			Candidates:           sumCounter(res, knnjoin.CtrCandidates),
			Fallbacks:            res.Fallbacks,
			ShuffleBytes:         res.Stats.ShuffleBytes,
			CompactEvals:         sumCounter(res, mapreduce.CtrCompactEvals),
			CompactRechecks:      sumCounter(res, mapreduce.CtrCompactRechecks),
		}
		rep.Arms = append(rep.Arms, arm)
		if !*jsonOut {
			fmt.Printf("%-6s %8.3fs  dist=%d cand=%d fallbacks=%d shuffleMB=%.1f\n",
				name, arm.WallSeconds, arm.DistanceComputations, arm.Candidates,
				arm.Fallbacks, float64(arm.ShuffleBytes)/(1<<20))
		}
		return res
	}

	ctx := context.Background()
	lsh := run("lsh", func(s *dag.Session) (*knnjoin.Result, error) {
		return knnjoin.Run(ctx, s, R, S, *k, cfg)
	})
	naive := run("naive", func(s *dag.Session) (*knnjoin.Result, error) {
		return knnjoin.RunExact(ctx, s, R, S, *k, cfg)
	})

	for qid := range naive.Neighbors {
		if len(lsh.Neighbors[qid]) != len(naive.Neighbors[qid]) {
			fatal(fmt.Errorf("arms disagree on query %d: %d vs %d neighbors",
				qid, len(lsh.Neighbors[qid]), len(naive.Neighbors[qid])))
		}
		for i := range naive.Neighbors[qid] {
			if lsh.Neighbors[qid][i] != naive.Neighbors[qid][i] {
				fatal(fmt.Errorf("arms disagree on query %d entry %d: %+v vs %+v",
					qid, i, lsh.Neighbors[qid][i], naive.Neighbors[qid][i]))
			}
		}
	}

	rep.Speedup = rep.Arms[1].WallSeconds / rep.Arms[0].WallSeconds
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		fatal(enc.Encode(rep))
	} else {
		fmt.Printf("speedup %.2fx (lsh vs naive), results bit-identical\n", rep.Speedup)
	}
}

func sumCounter(res *knnjoin.Result, name string) int64 {
	var s int64
	for _, j := range res.Stats.Jobs {
		s += j.Counters[name]
	}
	return s
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "knnbench: %v\n", err)
		os.Exit(1)
	}
}

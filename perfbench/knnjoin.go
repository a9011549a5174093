package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/knnjoin"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/obs"
	"repro/internal/points"
)

// knnK is the neighbour count of the join.
const knnK = 10

// knnSet is one base/query pair with its exact-oracle sample.
type knnSet struct {
	R, S   *points.Dataset
	sample []int
	exact  [][]knnjoin.Neighbor
}

// runKNNJoin is the only workload on the kNN-join subsystem, the top-k
// kernels and the in-process LocalEngine shuffle: knnjoin.Run with the
// default Config on blob data sets split into base and query sides. The
// certified/fallback split is live (a few percent of queries re-join
// exactly), so both passes are measured. A run joins knnSets pairs of one
// seed in turn: candidate pairs vary by ~7% between pairs of one size.
func runKNNJoin(r *run) error {
	ctx := context.Background()
	sz := r.sz
	type files struct{ r, s string }
	paths := make([]files, sz.knnSets)
	for j := range paths {
		seed := subSeed(r.seed, j)
		ds := dataset.Blobs("knn", sz.knnN+sz.knnQ, 8, 64, 400, 5, seed)
		R, S, err := dataset.Split(ds, sz.knnQ, subSeed(seed, 2))
		if err != nil {
			return err
		}
		paths[j] = files{filepath.Join(r.dir, fmt.Sprintf("queries-%d.csv", j)), filepath.Join(r.dir, fmt.Sprintf("base-%d.csv", j))}
		if err := dataset.WriteCSVFile(paths[j].r, R); err != nil {
			return err
		}
		if err := dataset.WriteCSVFile(paths[j].s, S); err != nil {
			return err
		}
	}

	// Set-up: read both sides of every pair, as `knn join` does.
	var sets []*knnSet
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		sets = nil
		runtime.GC()
		t := time.Now()
		for _, p := range paths {
			R, err := dataset.ReadCSVFile(p.r, "queries", true)
			if err != nil {
				return err
			}
			S, err := dataset.ReadCSVFile(p.s, "base", true)
			if err != nil {
				return err
			}
			sets = append(sets, &knnSet{R: R, S: S})
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	r.metrics["setup_s"] = median(setups)
	for j, set := range sets {
		set.sample = points.NewRand(subSeed(subSeed(r.seed, j), 3)).Perm(set.R.N())[:sz.knnCheck]
		var err error
		if set.exact, err = exactSample(ctx, set.R, set.S, set.sample, r.seed); err != nil {
			return err
		}
	}
	r.sampleHeap()

	join := func(set *knnSet, seed int64, tr *obs.Trace) (*knnjoin.Result, time.Duration, error) {
		drv := mapreduce.NewDriver(&mapreduce.LocalEngine{})
		drv.Trace = tr
		sess := dag.NewSession(drv, dag.Options{Trace: tr})
		t := time.Now()
		res, err := knnjoin.Run(ctx, sess, set.R, set.S, knnK, knnjoin.Config{Seed: seed})
		return res, time.Since(t), err
	}
	if _, _, err := join(sets[0], r.seed, nil); err != nil { // warm-up
		return err
	}

	var walls, agree, overhead []float64
	var traced []*knnjoin.Result
	var queries float64
	deadline := time.Now().Add(r.window)
	for i := 0; i < len(sets) || time.Now().Before(deadline); i++ {
		j, set := i%len(sets), sets[i%len(sets)]
		seed := lshSeed(r.seed, j)
		runtime.GC()
		res, wall, err := join(set, seed, nil)
		if err != nil {
			return err
		}
		walls = append(walls, ms(wall))
		queries += float64(set.R.N())
		bad := mismatches(res.Neighbors, set.exact, set.sample)
		r.op(bad > 0)
		r.check(fmt.Sprintf("knn-join.set%d.exact_sample", j), bad == 0,
			"%d of %d sampled queries differ from knnjoin.RunExact", bad, len(set.sample))
		agree = append(agree, 1-float64(bad)/float64(len(set.sample)))
		r.count(fmt.Sprintf("knn-join.set%d.candidates", j), sumCounter(res.Stats.Jobs, knnjoin.CtrCandidates))
		r.count(fmt.Sprintf("knn-join.set%d.fallbacks", j), int64(res.Fallbacks))
		r.count(fmt.Sprintf("knn-join.set%d.distance_computations", j), res.Stats.DistanceComputations)
		r.count(fmt.Sprintf("knn-join.set%d.shuffle_bytes", j), res.Stats.ShuffleBytes)
		if r.traced {
			runtime.GC()
			tres, twall, err := tracedJoin(r, func(tr *obs.Trace) (*knnjoin.Result, time.Duration, error) {
				return join(set, seed, tr)
			})
			if err != nil {
				return err
			}
			traced = append(traced, tres)
			r.tracedOps++
			overhead = append(overhead, frac(float64(twall-wall), float64(wall)))
		}
	}
	r.opTimes(walls)
	r.metrics["work_per_s"] = queries / (sum(walls) / 1000)
	r.metrics["quality"] = median(agree)
	if r.traced {
		r.metrics["trace.overhead_frac"] = median(overhead)
		knnLayers(r, traced, sz.knnQ)
	}
	return nil
}

// exactSample joins the sampled queries with knnjoin.RunExact, the
// broadcast oracle; entry i answers query sample[i].
func exactSample(ctx context.Context, R, S *points.Dataset, sample []int, seed int64) ([][]knnjoin.Neighbor, error) {
	sub := &points.Dataset{Name: "queries-sample", Points: make([]points.Point, len(sample))}
	for i, q := range sample {
		sub.Points[i] = points.Point{ID: int32(i), Pos: R.Points[q].Pos}
	}
	sess := dag.NewSession(mapreduce.NewDriver(&mapreduce.LocalEngine{}), dag.Options{})
	res, err := knnjoin.RunExact(ctx, sess, sub, S, knnK, knnjoin.Config{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("exact oracle: %w", err)
	}
	return res.Neighbors, nil
}

// mismatches counts sampled queries whose neighbour list is not
// bit-identical to the oracle's.
func mismatches(got, exact [][]knnjoin.Neighbor, sample []int) int {
	bad := 0
	for i, q := range sample {
		if q >= len(got) || !sameNeighbors(got[q], exact[i]) {
			bad++
		}
	}
	return bad
}

func sameNeighbors(a, b []knnjoin.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sumCounter(jobs []mapreduce.JobStats, name string) int64 {
	var s int64
	for _, j := range jobs {
		s += j.Counters[name]
	}
	return s
}

// tracedJoin is one join with the obs collector on, wrapped in benchmark
// spans.
func tracedJoin(r *run, join func(*obs.Trace) (*knnjoin.Result, time.Duration, error)) (*knnjoin.Result, time.Duration, error) {
	tr := &obs.Trace{}
	root, pipe := r.rec.id(), r.rec.id()
	start := time.Now()
	res, wall, err := join(tr)
	if err != nil {
		return nil, 0, err
	}
	end := start.Add(wall)
	r.rec.add(root, 0, root, "bench.join", "bench", start, end)
	r.rec.add(pipe, root, root, "knnjoin.Run", "knnjoin", start, end)
	r.rec.addJobTraces(pipe, root, tr.Jobs())
	return res, wall, nil
}

// knnLayers reports the per-layer metrics of the traced joins, each as a
// mean per join.
func knnLayers(r *run, joins []*knnjoin.Result, nq int) {
	n := float64(len(joins))
	add := func(k string, v float64) { r.metrics[k] += v / n }
	for _, res := range joins {
		st := res.Stats
		add("knnjoin.candidates", float64(sumCounter(st.Jobs, knnjoin.CtrCandidates)))
		add("knnjoin.fallbacks", float64(res.Fallbacks))
		add("knnjoin.certified_frac", 1-float64(res.Fallbacks)/float64(nq))
		for _, j := range st.Jobs {
			add("knnjoin.job."+j.Name+".wall_s", j.Wall.Seconds())
		}
		add("mapreduce.shuffle_bytes", float64(st.ShuffleBytes))
		addPhases(add, st.Phases)
		add("dag.nodes", float64(st.Dag[dag.CtrNodes]))
		add("dag.stage_bytes", float64(st.Dag[dag.CtrStageBytes]))
	}
}

package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalmetrics"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/mapreduce/rpcmr"
	"repro/internal/obs"
	"repro/internal/points"
)

// trainWorkers is the rpcmr worker count: one per CPU of the 2-CPU
// machines the benchmark was calibrated on.
const trainWorkers = 2

// subSeed derives the seed of the j-th data set of a run, or of the j-th
// random stream a data set's seed feeds. points.NewRand is a splitmix64
// counter, so seed s+1 yields seed s's stream one draw later: derived
// seeds are hashed apart, or the data sets of a run would be near copies
// of one another.
func subSeed(seed int64, j int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(j+1)*0xD1B54A32D192ED03
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return int64(z ^ z>>31)
}

// lshSeed is the seed the program draws data set j's LSH functions from.
// It is not the data set's own seed: the program seeds points.NewRand with
// it directly, and its first projections would be the very draws that
// placed the points.
func lshSeed(seed int64, j int) int64 { return subSeed(subSeed(seed, j), 1) }

// cluster is an in-process rpcmr master with its workers on loopback TCP.
type cluster struct {
	master  *rpcmr.Master
	workers []*rpcmr.Worker
}

func bootCluster(workers int) (*cluster, error) {
	m, err := rpcmr.NewMaster("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &cluster{master: m}
	for i := 0; i < workers; i++ {
		w, err := rpcmr.StartWorker(m.Addr(), "127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		c.workers = append(c.workers, w)
	}
	if err := m.WaitWorkers(workers, 10*time.Second); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) close() {
	for _, w := range c.workers {
		w.Close() //nolint:errcheck // shutting down
	}
	c.master.Close() //nolint:errcheck // shutting down
}

// fitResult is one LSH-DDP fit plus centralized clustering.
type fitResult struct {
	wall, clusterWall time.Duration
	labels            []int32
	stats             core.Stats
	history           []rpcmr.JobRecord
	wireBytes         int64
}

// fit runs LSH-DDP (default LSHConfig: A=0.99, M=10, π=3) on the cluster
// and the centralized step with one peak per generator cluster. With tr
// non-nil the program's obs.Trace collector is passed in as well.
func fit(ctx context.Context, c *cluster, ds *points.Dataset, seed int64, tr *obs.Trace) (*fitResult, error) {
	k := distinctLabels(ds.Labels)
	histMark := len(c.master.History())
	wire0 := c.master.TotalCounter(mapreduce.CtrShuffleWireBytes)
	start := time.Now()
	res, err := core.RunLSHDDP(ctx, ds, core.LSHConfig{Config: core.Config{Engine: c.master, Seed: seed, Trace: tr}})
	if err != nil {
		return nil, err
	}
	fitEnd := time.Now()
	_, labels, err := res.Cluster(ds, core.SelectTopK(k))
	if err != nil {
		return nil, err
	}
	end := time.Now()
	return &fitResult{
		wall:        end.Sub(start),
		clusterWall: end.Sub(fitEnd),
		labels:      labels,
		stats:       res.Stats,
		history:     c.master.History()[histMark:],
		wireBytes:   c.master.TotalCounter(mapreduce.CtrShuffleWireBytes) - wire0,
	}, nil
}

// checkFit scores a fit's labels against the generator's with ARI and
// checks the score against the floor.
func (r *run) checkFit(set int, truth []int, labels []int32) (float64, bool) {
	ari, err := evalmetrics.ARI(truth, evalmetrics.IntLabels(labels))
	ok := err == nil && ari >= r.sz.trainARIFloor
	r.check(fmt.Sprintf("train.ari.set%d", set), ok, "ARI %.4f (%v) below floor %.2f", ari, err, r.sz.trainARIFloor)
	return ari, ok
}

func distinctLabels(ls []int) int {
	seen := map[int]bool{}
	for _, l := range ls {
		seen[l] = true
	}
	return len(seen)
}

// runTrain is the paper's pipeline in the paper's setting: LSH-DDP on
// BigCross-shaped data over a 2-worker TCP cluster, then the centralized
// clustering step. A run fits trainSets data sets of one seed in turn,
// so the reported median is not at the mercy of one data set's largest
// LSH partition (fit time varies by ~10% between data sets of one size).
func runTrain(r *run) error {
	ctx := context.Background()
	sz := r.sz
	paths := make([]string, sz.trainSets)
	for j := range paths {
		paths[j] = filepath.Join(r.dir, fmt.Sprintf("bigcross-%d.csv", j))
		if err := dataset.WriteCSVFile(paths[j], dataset.BigCross(sz.trainN, subSeed(r.seed, j))); err != nil {
			return err
		}
	}
	rpcmr.RegisterJobs(core.JobFactories())

	// Set-up: read the input files and boot the cluster, as `ddp -input`
	// with a master and two workers does.
	var cl *cluster
	var sets []*points.Dataset
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if cl != nil {
			cl.close()
		}
		sets = nil
		runtime.GC()
		t := time.Now()
		for j, p := range paths {
			ds, err := dataset.ReadCSVFile(p, fmt.Sprintf("bigcross-%d", j), true)
			if err != nil {
				return err
			}
			sets = append(sets, ds)
		}
		var err error
		if cl, err = bootCluster(trainWorkers); err != nil {
			return err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer cl.close()
	r.metrics["setup_s"] = median(setups)
	r.sampleHeap()

	// Warm-up: one fit of a small data set primes connection pools and
	// worker polling.
	if _, err := fit(ctx, cl, dataset.BigCross(1000, r.seed), r.seed, nil); err != nil {
		return err
	}

	var walls, aris []float64
	var points float64
	var traced []*fitResult
	var overhead []float64
	deadline := time.Now().Add(r.window)
	for i := 0; i < len(sets) || time.Now().Before(deadline); i++ {
		j, ds := i%len(sets), sets[i%len(sets)]
		runtime.GC()
		f, err := fit(ctx, cl, ds, lshSeed(r.seed, j), nil)
		if err != nil {
			return err
		}
		walls = append(walls, ms(f.wall))
		ari, ok := r.checkFit(j, ds.Labels, f.labels)
		aris = append(aris, ari)
		points += float64(ds.N())
		r.op(!ok)
		r.count(fmt.Sprintf("train.set%d.distance_computations", j), f.stats.DistanceComputations)
		r.count(fmt.Sprintf("train.set%d.shuffle_bytes", j), f.stats.ShuffleBytes)
		r.count(fmt.Sprintf("train.set%d.dag_nodes", j), f.stats.Dag[dag.CtrNodes])
		if r.traced {
			// The same fit again with tracing on, back to back, so the
			// overhead compares equal work.
			runtime.GC()
			tf, err := tracedFit(ctx, r, cl, ds, lshSeed(r.seed, j))
			if err != nil {
				return err
			}
			traced = append(traced, tf)
			r.tracedOps++
			overhead = append(overhead, frac(float64(tf.wall-f.wall), float64(f.wall)))
		}
	}
	r.opTimes(walls)
	r.metrics["work_per_s"] = points / (sum(walls) / 1000)
	r.metrics["quality"] = median(aris)
	r.info["fits"] = len(walls)
	r.info["ari"] = aris
	if r.traced {
		r.metrics["trace.overhead_frac"] = median(overhead)
		trainLayers(r, traced)
	}
	return nil
}

// tracedFit is fit wrapped in benchmark spans, with the program's job
// traces imported under them.
func tracedFit(ctx context.Context, r *run, cl *cluster, ds *points.Dataset, seed int64) (*fitResult, error) {
	tr := &obs.Trace{}
	root, pipe := r.rec.id(), r.rec.id()
	start := time.Now()
	f, err := fit(ctx, cl, ds, seed, tr)
	if err != nil {
		return nil, err
	}
	end := start.Add(f.wall)
	r.rec.add(root, 0, root, "bench.fit", "bench", start, end)
	r.rec.add(pipe, root, root, "core.RunLSHDDP", "core", start, end.Add(-f.clusterWall))
	r.rec.add(0, root, root, "core.Result.Cluster", "core", end.Add(-f.clusterWall), end)
	r.rec.addJobTraces(pipe, root, tr.Jobs())
	return f, nil
}

// trainLayers reports the per-layer metrics of the traced fits, each as a
// mean per fit.
func trainLayers(r *run, fits []*fitResult) {
	n := float64(len(fits))
	add := func(k string, v float64) { r.metrics[k] += v / n }
	for _, f := range fits {
		st := f.stats
		add("core.distance_computations", float64(st.DistanceComputations))
		add("core.cluster_s", f.clusterWall.Seconds())
		for _, j := range st.Jobs {
			add("core.job."+j.Name+".wall_s", j.Wall.Seconds())
		}
		add("mapreduce.shuffle_bytes", float64(st.ShuffleBytes))
		addPhases(add, st.Phases)
		add("rpcmr.wire_bytes", float64(f.wireBytes))
		var weighted, weight float64
		for _, h := range f.history {
			add("rpcmr.stragglers", float64(h.ReduceDist.Stragglers))
			if h.ReduceDist.Tasks >= 2 && h.ReduceDist.Median > 0 {
				weighted += h.Wall.Seconds() * float64(h.ReduceDist.Max) / float64(h.ReduceDist.Median)
				weight += h.Wall.Seconds()
			}
		}
		add("rpcmr.reduce_max_over_median", frac(weighted, weight))
		add("dag.nodes", float64(st.Dag[dag.CtrNodes]))
		add("dag.stage_bytes", float64(st.Dag[dag.CtrStageBytes]))
	}
}

// addPhases adds the summed task time of each MapReduce phase.
func addPhases(add func(string, float64), ph obs.PhaseTotals) {
	for _, p := range []obs.Phase{obs.PhaseMap, obs.PhaseSort, obs.PhaseShuffle, obs.PhaseFetch, obs.PhaseReduce} {
		add("mapreduce.phase."+string(p)+"_s", ph[p].Wall.Seconds())
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/mapreduce"
	"repro/internal/mapreduce/dag"
	"repro/internal/points"
)

// LSHConfig configures LSH-DDP.
type LSHConfig struct {
	Config
	// Accuracy is the expected accuracy A of Section V; when W is 0 the
	// runner solves Eq. 5 for the minimal width meeting it. Default 0.99.
	Accuracy float64
	// M is the number of LSH layouts (hash groups). Default 10, the
	// paper's recommended range being [10, 20].
	M int
	// Pi is the number of hash functions per group. Default 3, the
	// paper's recommended range being [3, 10].
	Pi int
	// W pins the hash width; 0 derives it from Accuracy and d_c.
	W float64
	// AggregateMean switches ρ̂ aggregation from the paper's max to a mean
	// (ablation; Theorem 1 justifies max because ρ̂ᵐ ≤ ρ always).
	AggregateMean bool
	// MaxPartition caps the local work of one LSH partition: a reducer
	// group larger than this is processed in contiguous chunks of at most
	// MaxPartition points, and pairs across chunks are skipped. Local
	// estimates remain valid (ρ̂ still undercounts, δ̂ still overshoots),
	// so Theorem 1/2 aggregation is unaffected — this trades accuracy for
	// a hard bound on reducer cost and skew, the failure mode Figure 12
	// observes at small M with large π. 0 disables the cap.
	MaxPartition int
}

func (c *LSHConfig) accuracy() float64 {
	if c.Accuracy > 0 {
		return c.Accuracy
	}
	return 0.99
}

func (c *LSHConfig) m() int {
	if c.M > 0 {
		return c.M
	}
	return 10
}

func (c *LSHConfig) pi() int {
	if c.Pi > 0 {
		return c.Pi
	}
	return 3
}

// RunLSHDDP executes the approximate LSH-DDP pipeline of Section IV as
// one job DAG:
//
//	node 0  d_c sampling (unless cfg.Dc is set)
//	        width solving: minimal w with 1−(1−P_ρ(w,d_c)^π)^M ≥ A
//	node 1  LSH partition (M layouts) + local ρ̂ per partition
//	node 2  ρ̂ aggregation: max over layouts (Theorem 1)
//	node 3  ρ̂-annotate transform (driver side)
//	node 4  LSH partition + local δ̂/upslope using aggregated ρ̂;
//	        local absolute peaks get δ̂ = +∞ (Section IV-C)
//	node 5  δ̂ aggregation: min over layouts (Theorem 2)
//
// The returned Delta may contain +∞ for points that looked like the
// absolute peak in every layout; Result.Cluster rectifies them to the max
// finite δ before peak selection, as the paper prescribes.
func RunLSHDDP(ctx context.Context, ds *points.Dataset, cfg LSHConfig) (*Result, error) {
	start := time.Now()
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if ds.N() < 2 {
		return nil, fmt.Errorf("core: need at least 2 points, have %d", ds.N())
	}
	sess := cfg.DagSession()
	mark := MarkRunner(sess.Runner())
	traceMark := len(sess.Traces())
	dagBefore := sess.Counters()
	input := sess.Stage("points", InputPairs(ds))

	dc, err := ChooseDc(ctx, sess, ds, &cfg.Config, input)
	if err != nil {
		return nil, err
	}
	w := cfg.W
	if w <= 0 {
		w, err = lsh.SolveWidth(cfg.accuracy(), dc, cfg.pi(), cfg.m())
		if err != nil {
			return nil, err
		}
	}

	conf := mapreduce.Conf{}
	conf.SetFloat(confDc, dc)
	conf.SetInt(confDim, ds.Dim())
	conf.SetInt(confM, cfg.m())
	conf.SetInt(confPi, cfg.pi())
	conf.SetFloat(confW, w)
	conf.SetInt64(confSeed, cfg.Seed)
	conf.SetBool(confAggMean, cfg.AggregateMean)
	conf.SetInt(confMaxPart, cfg.MaxPartition)
	setKernelConf(conf, cfg.Kernel)
	setParallelConf(conf, &cfg.Config)

	g := dag.NewGraph("lsh-ddp")
	partials := g.Job(LSHRhoJob(conf).WithReduces(cfg.NumReduces), input)
	rhoOut := g.Job(LSHRhoAggJob(conf).WithReduces(cfg.NumReduces), partials)
	rhoPts := g.Transform("lsh-rho-points", func(in ...[]mapreduce.Pair) ([]mapreduce.Pair, error) {
		rho, err := DecodeRhoArray(in[0], ds.N())
		if err != nil {
			return nil, err
		}
		return RhoPointPairs(ds, rho), nil
	}, rhoOut)
	dPartials := g.Job(LSHDeltaJob(conf).WithReduces(cfg.NumReduces), rhoPts)
	dOut := g.Job(DeltaAggJob(JobLSHDelAgg, mapreduce.Conf{}).WithReduces(cfg.NumReduces), dPartials)

	outs, err := sess.Run(ctx, g, rhoOut, dOut)
	if err != nil {
		return nil, err
	}
	rho, err := DecodeRhoArray(outs[0], ds.N())
	if err != nil {
		return nil, err
	}
	delta, upslope, err := DecodeDeltaArrays(outs[1], ds.N())
	if err != nil {
		return nil, err
	}

	res := &Result{Rho: rho, Delta: delta, Upslope: upslope}
	res.Stats.Dc = dc
	res.Stats.W = w
	res.Stats.Pi = cfg.pi()
	res.Stats.M = cfg.m()
	CollectStats(&res.Stats, sess.Runner(), mark, start)
	CollectDagStats(&res.Stats, sess, traceMark, dagBefore)
	return res, nil
}

// layoutsFromConf rebuilds the LSH layouts deterministically from job
// configuration. Workers of the distributed engine call this instead of
// receiving serialized hash functions: the draws are seeded, so every
// worker regenerates identical layouts.
//
// Construction costs O(M·π·dim) once per task; a small cache keyed by the
// parameter tuple amortizes it across tasks of one process.
var layoutCache sync.Map // layoutKey -> *lsh.Layouts

type layoutKey struct {
	dim, m, pi int
	w          float64
	seed       int64
}

func layoutsFromConf(conf mapreduce.Conf) *lsh.Layouts {
	key := layoutKey{
		dim:  conf.GetInt(confDim, 0),
		m:    conf.GetInt(confM, 1),
		pi:   conf.GetInt(confPi, 1),
		w:    conf.GetFloat(confW, 1),
		seed: conf.GetInt64(confSeed, 0),
	}
	if v, ok := layoutCache.Load(key); ok {
		return v.(*lsh.Layouts)
	}
	l := lsh.NewLayouts(key.dim, key.m, key.pi, key.w, key.seed)
	layoutCache.Store(key, l)
	return l
}

// LSHRhoJob is job 1: the map side hashes every point under all M layouts
// and emits one copy per layout keyed by "m|G_m(p)"; each reducer owns one
// LSH partition S_k^m and computes the local density ρ̂ᵢᵐ of every point in
// it (Section IV-B).
func LSHRhoJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobLSHRho,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			layouts := layoutsFromConf(ctx.Conf)
			p, _, err := points.DecodePoint(value)
			if err != nil {
				return err
			}
			for _, key := range layouts.Keys(p.Pos) {
				out.Emit(key, value)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			kern := kernelFromConf(ctx.Conf)
			par := parallelFromConf(ctx.Conf)
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			if err := points.DecodePointsInto(m, values); err != nil {
				return err
			}
			if par.Enabled(m.N()) {
				ctx.Counters.Cell(mapreduce.CtrParallelGroups).Add(1)
			}
			rho := make([]float64, m.N())
			var nd int64
			for _, ch := range chunks(m.N(), ctx.Conf.GetInt(confMaxPart, 0)) {
				nd += kernels.RhoAccumulateAuto(m, ch.Lo, ch.Hi, kern, rho, par)
			}
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			for i := 0; i < m.N(); i++ {
				id := m.ID(i)
				out.Emit(idKey(id), points.EncodeRhoValue(points.RhoValue{ID: id, Rho: rho[i]}))
			}
			return nil
		},
	}
}

// LSHRhoAggJob is job 2: fold the M per-layout ρ̂ᵐ estimates into ρ̂. The
// paper takes the max (every local estimate undercounts, so the largest is
// closest to the truth — Theorem 1); conf can switch to the mean for the
// ablation study.
func LSHRhoAggJob(conf mapreduce.Conf) *mapreduce.Job {
	fold := func(ctx *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
		mean := ctx.Conf.GetBool(confAggMean, false)
		var id int32
		var maxV, sum float64
		for i, v := range values {
			rv, err := points.DecodeRhoValue(v)
			if err != nil {
				return err
			}
			if i == 0 {
				id = rv.ID
			}
			if rv.Rho > maxV {
				maxV = rv.Rho
			}
			sum += rv.Rho
		}
		agg := maxV
		if mean {
			agg = sum / float64(len(values))
		}
		out.Emit(key, points.EncodeRhoValue(points.RhoValue{ID: id, Rho: agg}))
		return nil
	}
	return &mapreduce.Job{
		Name: JobLSHRhoAgg,
		Conf: conf,
		Map:  identityMap,
		// The mean fold is not associative under re-grouping (it would
		// average averages), so the combiner is only safe for max; we skip
		// it entirely to keep both modes correct and comparable.
		Reduce: fold,
	}
}

// LSHDeltaJob is job 3: LSH-partition the ρ̂-annotated points again and
// compute, per partition, δ̂ᵢᵐ = min distance to a denser point and its
// upslope identity; the locally densest point gets δ̂ = +∞ and no upslope
// (Section IV-C).
func LSHDeltaJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: JobLSHDel,
		Conf: conf,
		Map: func(ctx *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			layouts := layoutsFromConf(ctx.Conf)
			rp, _, err := points.DecodeRhoPoint(value)
			if err != nil {
				return err
			}
			for _, key := range layouts.Keys(rp.Pos) {
				out.Emit(key, value)
			}
			return nil
		},
		Reduce: func(ctx *mapreduce.TaskContext, _ string, values [][]byte, out mapreduce.Emitter) error {
			par := parallelFromConf(ctx.Conf)
			m := points.GetMatrix()
			defer points.PutMatrix(m)
			if err := points.DecodeRhoPointsInto(m, values); err != nil {
				return err
			}
			if par.Enabled(m.N()) {
				ctx.Counters.Cell(mapreduce.CtrParallelGroups).Add(1)
			}
			acc := kernels.NewDeltaAcc(m.N(), false)
			var nd int64
			for _, ch := range chunks(m.N(), ctx.Conf.GetInt(confMaxPart, 0)) {
				nd += kernels.DeltaArgminAuto(m, ch.Lo, ch.Hi, acc, par)
			}
			ctx.Counters.Cell(mapreduce.CtrDistanceComputations).Add(nd)
			for i := 0; i < m.N(); i++ {
				id := m.ID(i)
				dv := points.DeltaValue{ID: id, Delta: math.Inf(1), Upslope: -1}
				if acc.Up[i] >= 0 {
					dv.Delta = math.Sqrt(acc.Best2[i])
					dv.Upslope = m.ID(int(acc.Up[i]))
				}
				out.Emit(idKey(id), points.EncodeDeltaValue(dv))
			}
			return nil
		},
	}
}

// chunkRange is a [Lo, Hi) slice of a partition's point list.
type chunkRange struct{ Lo, Hi int }

// chunks yields ranges of at most cap elements (one full range when
// cap <= 0), implementing the MaxPartition bound.
func chunks(n, cap int) []chunkRange {
	if cap <= 0 || cap >= n {
		return []chunkRange{{0, n}}
	}
	out := make([]chunkRange, 0, (n+cap-1)/cap)
	for lo := 0; lo < n; lo += cap {
		hi := lo + cap
		if hi > n {
			hi = n
		}
		out = append(out, chunkRange{lo, hi})
	}
	return out
}

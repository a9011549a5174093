package kernels

import (
	"math/rand"
	"testing"

	"repro/internal/points"
)

// Benchmarks for the compact scan path (make bench-scan). The NN scans
// measure one full pass over a 1M×8 block — the serving engine's exact
// fallback shape — per precision (compact arms scan into a k = 1
// TopKShortlist and re-rank it exactly, as the engine does); NNBatch
// amortizes one pass over a 64-query micro-batch.

type scanFixture struct {
	n, dim int
	data   []float64
	data32 []float32
	maxAbs float64
	codes  []uint8
	par    points.Q8Params
	qs     []float64
	qs32   []float32
}

func newScanFixture(b *testing.B, n, dim, nq int) *scanFixture {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	f := &scanFixture{n: n, dim: dim}
	f.data = make([]float64, n*dim)
	for i := range f.data {
		f.data[i] = rng.NormFloat64() * 10
	}
	f.data32, f.maxAbs = points.ToFloat32(f.data)
	var ok bool
	f.codes, f.par, ok = points.QuantizeQ8(f.data, dim)
	if !ok {
		b.Fatal("quantize failed")
	}
	f.qs = make([]float64, nq*dim)
	for i := range f.qs {
		f.qs[i] = rng.NormFloat64() * 10
	}
	f.qs32, _ = points.ToFloat32(f.qs)
	return f
}

func BenchmarkNNScan(b *testing.B) {
	f := newScanFixture(b, 1_000_000, 8, 1)
	q := f.qs[:f.dim]
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8))
		for i := 0; i < b.N; i++ {
			NNRange(f.data, f.dim, q, 0, f.n)
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 4))
		bnd := F32Bounds(f.dim, f.maxAbs)
		var sl TopKShortlist
		for i := 0; i < b.N; i++ {
			sl.Reset(1, bnd)
			TopKRange32(f.data32, f.dim, f.qs32[:f.dim], 0, f.n, &sl)
			NNRows(f.data, f.dim, q, sl.Finish())
		}
	})
	b.Run("q8", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim))
		bnd := Q8Bounds(f.dim, f.par.ErrBound())
		var lut Q8LUT
		var sl TopKShortlist
		for i := 0; i < b.N; i++ {
			BuildQ8LUT(f.par, q, &lut)
			sl.Reset(1, bnd)
			TopKRangeQ8(f.codes, f.dim, &lut, 0, f.n, &sl)
			NNRows(f.data, f.dim, q, sl.Finish())
		}
	})
}

func BenchmarkNNBatch(b *testing.B) {
	const nq = 64
	f := newScanFixture(b, 1_000_000, 8, nq)
	b.Run("f64-seq", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		for i := 0; i < b.N; i++ {
			for qi := 0; qi < nq; qi++ {
				NNRange(f.data, f.dim, f.qs[qi*f.dim:(qi+1)*f.dim], 0, f.n)
			}
		}
	})
	best := make([]int32, nq)
	best2 := make([]float64, nq)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		for i := 0; i < b.N; i++ {
			NNBatch(f.data, f.dim, f.qs, 0, f.n, best, best2)
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 4 * nq))
		bnd := F32Bounds(f.dim, f.maxAbs)
		sls := make([]TopKShortlist, nq)
		for i := 0; i < b.N; i++ {
			for qi := range sls {
				sls[qi].Reset(1, bnd)
			}
			TopKBatch32(f.data32, f.dim, f.qs32, 0, f.n, sls)
			for qi := range sls {
				NNRows(f.data, f.dim, f.qs[qi*f.dim:(qi+1)*f.dim], sls[qi].Finish())
			}
		}
	})
	b.Run("q8", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * nq))
		bnd := Q8Bounds(f.dim, f.par.ErrBound())
		sls := make([]TopKShortlist, nq)
		luts := make([]Q8LUT, nq)
		for i := 0; i < b.N; i++ {
			for qi := range sls {
				sls[qi].Reset(1, bnd)
				BuildQ8LUT(f.par, f.qs[qi*f.dim:(qi+1)*f.dim], &luts[qi])
			}
			TopKBatchQ8(f.codes, f.dim, luts, 0, f.n, sls)
			for qi := range sls {
				NNRows(f.data, f.dim, f.qs[qi*f.dim:(qi+1)*f.dim], sls[qi].Finish())
			}
		}
	})
}

// BenchmarkTopKScan measures the k=10 top-k shapes the kNN-join reducers
// run: a 64-query batch over a 200k×8 block, per precision (the f32 arm
// includes the exact re-rank of each shortlist).
func BenchmarkTopKScan(b *testing.B) {
	const nq, k = 64, 10
	f := newScanFixture(b, 200_000, 8, nq)
	b.Run("f64", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 8 * nq))
		accs := make([]TopKAcc, nq)
		for i := 0; i < b.N; i++ {
			for qi := range accs {
				accs[qi].Reset(k)
			}
			TopKBatch(f.data, f.dim, f.qs, 0, f.n, accs)
		}
	})
	b.Run("f32", func(b *testing.B) {
		b.SetBytes(int64(f.n * f.dim * 4 * nq))
		bnd := F32Bounds(f.dim, f.maxAbs)
		sls := make([]TopKShortlist, nq)
		accs := make([]TopKAcc, nq)
		for i := 0; i < b.N; i++ {
			for qi := range sls {
				sls[qi].Reset(k, bnd)
				accs[qi].Reset(k)
			}
			TopKBatch32(f.data32, f.dim, f.qs32, 0, f.n, sls)
			for qi := range sls {
				TopKRows(f.data, f.dim, f.qs[qi*f.dim:(qi+1)*f.dim], sls[qi].Finish(), &accs[qi])
			}
		}
	})
}

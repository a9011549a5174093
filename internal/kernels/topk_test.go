package kernels

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/points"
)

// Property tests for the top-k scan kernels. The contract under test: the
// kept set equals the sort-based oracle — finite distances sorted by
// (squared distance, row index), first k — regardless of observation order,
// tiling, or chunking; and the compact f32 scan plus exact re-rank is
// bit-identical to the pure float64 kernel.

// naiveTopK is the sort-based oracle over the listed rows.
func naiveTopK(data []float64, dim int, q []float64, rows []int32, k int) []TopKEntry {
	var all []TopKEntry
	for _, r := range rows {
		i := int(r)
		var d2 float64
		for j := 0; j < dim; j++ {
			d := q[j] - data[i*dim+j]
			d2 += d * d
		}
		if d2 < math.Inf(1) {
			all = append(all, TopKEntry{Row: r, D2: d2})
		}
	}
	for a := 1; a < len(all); a++ { // insertion sort: no ordering subtleties
		for b := a; b > 0 && topkWorse(all[b-1], all[b]); b-- {
			all[b-1], all[b] = all[b], all[b-1]
		}
	}
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func randQuery(rng *rand.Rand, dim int) []float64 {
	q := make([]float64, dim)
	for j := range q {
		q[j] = rng.NormFloat64() * 10
	}
	return q
}

func TestTopKAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{2, 3, 7} { // dim 2 exercises the unrolled path
		n := 180
		data := randBlock(rng, n, dim, 10) // plants duplicates and near ties
		allRows := make([]int32, n)
		for i := range allRows {
			allRows[i] = int32(i)
		}
		acc := NewTopKAcc(1)
		for _, k := range []int{1, 3, 10, n, n + 17} {
			for trial := 0; trial < 20; trial++ {
				q := randQuery(rng, dim)
				want := naiveTopK(data, dim, q, allRows, k)

				acc.Reset(k)
				TopKRange(data, dim, q, 0, n, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
					t.Fatalf("dim %d k %d: TopKRange = %v, want %v", dim, k, got, want)
				}

				// A strided subset, visited in descending order: the kept
				// set must not depend on observation order.
				var rows []int32
				for i := n - 1 - trial%3; i >= 0; i -= 3 {
					rows = append(rows, int32(i))
				}
				acc.Reset(k)
				TopKRows(data, dim, q, rows, acc)
				if got := acc.Append(nil); !reflect.DeepEqual(got, naiveTopK(data, dim, q, rows, k)) {
					t.Fatalf("dim %d k %d: TopKRows mismatch on strided subset", dim, k)
				}
			}
		}
	}
}

// Any chunking of the scan range, and the tiled batch kernel, must land in
// a bit-identical final state.
func TestTopKChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	dim, n, k := 3, 300, 8
	data := randBlock(rng, n, dim, 5)
	nq := 7
	qs := make([]float64, nq*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64() * 5
	}
	for qi := 0; qi < nq; qi++ {
		q := qs[qi*dim : (qi+1)*dim]
		flat := NewTopKAcc(k)
		TopKRange(data, dim, q, 0, n, flat)
		want := flat.Append(nil)
		for _, chunk := range []int{1, 7, nnTile - 1, nnTile, n} {
			acc := NewTopKAcc(k)
			for lo := 0; lo < n; lo += chunk {
				TopKRange(data, dim, q, lo, minInt(lo+chunk, n), acc)
			}
			if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d chunk %d: chunked scan diverged", qi, chunk)
			}
		}
	}
	accs := make([]TopKAcc, nq)
	for i := range accs {
		accs[i].Reset(k)
	}
	TopKBatch(data, dim, qs, 0, n, accs)
	for qi := range accs {
		flat := NewTopKAcc(k)
		TopKRange(data, dim, qs[qi*dim:(qi+1)*dim], 0, n, flat)
		if got, want := accs[qi].Append(nil), flat.Append(nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: TopKBatch diverged from TopKRange", qi)
		}
	}
}

// Rows with non-finite distances (+Inf overflow, NaN from Inf−Inf) are
// ineligible, matching the NN kernels' "no finite distance" contract.
func TestTopKNonFiniteRows(t *testing.T) {
	dim, k := 2, 3
	data := []float64{
		0, 0, // row 0: finite
		math.Inf(1), 0, // row 1: d2 = +Inf
		math.Inf(1), math.Inf(1), // row 2: NaN vs an infinite query coord
		1, 1, // row 3: finite
	}
	acc := NewTopKAcc(k)
	TopKRange(data, dim, []float64{0, 1}, 0, 4, acc)
	got := acc.Append(nil)
	want := naiveTopK(data, dim, []float64{0, 1}, []int32{0, 1, 2, 3}, k)
	if !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Fatalf("mixed non-finite rows: got %v, want %v (len 2)", got, want)
	}
	// Query at +Inf: every distance is +Inf or NaN, nothing is kept.
	acc.Reset(k)
	TopKRange(data, dim, []float64{math.Inf(1), 0}, 0, 4, acc)
	if acc.Len() != 0 {
		t.Fatalf("all-overflow scan kept %d rows, want 0", acc.Len())
	}
	if thr := acc.Threshold(); !math.IsInf(thr, 1) {
		t.Fatalf("empty accumulator threshold = %v, want +Inf", thr)
	}
}

// Top-1 must agree exactly with the single-NN kernel.
func TestTopKMatchesNNAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, dim := range []int{2, 5} {
		n := 150
		data := randBlock(rng, n, dim, 3)
		for trial := 0; trial < 30; trial++ {
			q := randQuery(rng, dim)
			bi, b2 := NNRange(data, dim, q, 0, n)
			acc := NewTopKAcc(1)
			TopKRange(data, dim, q, 0, n, acc)
			got := acc.Append(nil)
			if len(got) != 1 || int(got[0].Row) != bi || got[0].D2 != b2 {
				t.Fatalf("dim %d: top-1 %v, want (%d, %v)", dim, got, bi, b2)
			}
		}
	}
}

// The f32 shortlist scan plus exact re-rank is bit-identical to the pure
// float64 top-k, at a benign scale and at a scale whose squared distances
// overflow float32 (compact distances +Inf → full exact re-rank).
func TestTopK32Rerank(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, scale := range []float64{4, 1e25} {
		for _, dim := range []int{2, 3, 7} {
			n := 220
			data := randBlock(rng, n, dim, scale)
			data32, _ := points.ToFloat32(data)
			for _, k := range []int{1, 5, 16} {
				for trial := 0; trial < 12; trial++ {
					q := randQuery(rng, dim)
					for j := range q {
						q[j] *= scale / 4
					}
					bnd := F32Bounds(dim, blockMaxAbs(data, q))
					q32, _ := points.ToFloat32(q)
					var sl TopKShortlist
					sl.Reset(k, bnd)
					TopKRange32(data32, dim, q32, 0, n, &sl)
					acc := NewTopKAcc(k)
					TopKRows(data, dim, q, sl.Finish(), acc)
					got := acc.Append(nil)

					ref := NewTopKAcc(k)
					TopKRange(data, dim, q, 0, n, ref)
					if want := ref.Append(nil); !reflect.DeepEqual(got, want) {
						t.Fatalf("scale %g dim %d k %d: rerank %v, want %v", scale, dim, k, got, want)
					}
				}
			}
		}
	}
}

// The batched compact kernels must leave every shortlist in the same state
// as their single-query counterparts, and the row-list kernels must honor
// the running threshold like the range kernels do, for f32 and q8. The
// k = 1 batch case is TestNNBatch32MatchesPerQuery.
func TestTopK32BatchAndRows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	dim, n, k, nq := 3, 260, 6, 5
	data := randBlock(rng, n, dim, 8)
	data32, _ := points.ToFloat32(data)
	codes, par, ok := points.QuantizeQ8(data, dim)
	if !ok {
		t.Fatal("quantize failed")
	}
	qs := make([]float64, nq*dim)
	for i := range qs {
		qs[i] = rng.NormFloat64() * 8
	}
	qs32, _ := points.ToFloat32(qs)
	bnd := F32Bounds(dim, blockMaxAbs(data, qs))
	qbnd := Q8Bounds(dim, par.ErrBound())

	sls := make([]TopKShortlist, nq)
	qsls := make([]TopKShortlist, nq)
	luts := make([]Q8LUT, nq)
	for i := range sls {
		sls[i].Reset(k, bnd)
		qsls[i].Reset(k, qbnd)
		BuildQ8LUT(par, qs[i*dim:(i+1)*dim], &luts[i])
	}
	TopKBatch32(data32, dim, qs32, 0, n, sls)
	TopKBatchQ8(codes, dim, luts, 0, n, qsls)

	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	for qi := 0; qi < nq; qi++ {
		q, q32 := qs[qi*dim:(qi+1)*dim], qs32[qi*dim:(qi+1)*dim]
		var flat, byRows, qflat, qrows TopKShortlist
		flat.Reset(k, bnd)
		TopKRange32(data32, dim, q32, 0, n, &flat)
		byRows.Reset(k, bnd)
		TopKRows32(data32, dim, q32, rows, &byRows)
		qflat.Reset(k, qbnd)
		TopKRangeQ8(codes, dim, &luts[qi], 0, n, &qflat)
		qrows.Reset(k, qbnd)
		TopKRowsQ8(codes, dim, &luts[qi], rows, &qrows)

		ref := NewTopKAcc(k)
		TopKRange(data, dim, q, 0, n, ref)
		want := ref.Append(nil)
		for name, sl := range map[string]*TopKShortlist{
			"batch": &sls[qi], "range": &flat, "rows": &byRows,
			"q8-batch": &qsls[qi], "q8-range": &qflat, "q8-rows": &qrows,
		} {
			acc := NewTopKAcc(k)
			TopKRows(data, dim, q, sl.Finish(), acc)
			if got := acc.Append(nil); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d via %s: %v, want %v", qi, name, got, want)
			}
		}
	}
}

// Mass ties beyond the compaction limit: many rows at exactly the same
// distance must force shortlist growth — no threshold can prune a tie, so
// every row survives — without losing the true top-k (lowest rows first).
// The k = 1 tie flood is TestShortlistRefilterGrowth.
func TestTopK32MassTies(t *testing.T) {
	dim, k := 2, 4
	n := 3 * shortlistCompactAt
	data := make([]float64, n*dim)
	for i := 0; i < n; i++ {
		data[i*dim] = 3 // all rows identical → every distance ties
	}
	q := []float64{0, 0}
	data32, _ := points.ToFloat32(data)
	q32, _ := points.ToFloat32(q)
	bnd := F32Bounds(dim, 3)
	var sl TopKShortlist
	sl.Reset(k, bnd)
	TopKRange32(data32, dim, q32, 0, n, &sl)
	short := sl.Finish()
	if len(short) != n {
		t.Fatalf("tie flood must keep all %d rows, kept %d", n, len(short))
	}
	acc := NewTopKAcc(k)
	TopKRows(data, dim, q, short, acc)
	got := acc.Append(nil)
	ref := NewTopKAcc(k)
	TopKRange(data, dim, q, 0, n, ref)
	if want := ref.Append(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("mass ties: got %v, want %v", got, want)
	}
	for i, e := range got {
		if e.Row != int32(i) {
			t.Fatalf("mass ties kept row %d at rank %d, want lowest rows", e.Row, i)
		}
	}
}

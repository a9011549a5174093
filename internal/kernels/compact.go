package kernels

// Compact (float32 / 8-bit-quantized) scan support with exact float64
// re-rank. A compact scan streams a mirror of the coordinate block — half
// or an eighth of the float64 bytes — and collects a TopKShortlist of
// every row that *could* belong to the true top-k under a sound error
// bound; the caller then re-ranks the shortlist with the exact float64
// TopKRows (NNRows at k = 1), so the final result — rows, squared distances, and the
// lowest-row-index tie rule — is bit-identical to a pure float64 scan.
// This file holds the error contract, the float32 distance, and the q8
// lookup-table kernels; topk32.go holds the shortlist and the float32
// kernels.
//
// Soundness rests on one contract (Bounds): the compact squared distance
// d32 and the exact squared distance d64 of the same row pair satisfy
//
//	|sqrt(d32) − sqrt(d64)| ≤ Rel·sqrt(d64) + Abs
//
// with Rel/Abs chosen far above the worst-case rounding of the compact
// arithmetic (see F32Bounds/Q8Bounds). Every admission test is arranged so
// that a NaN or +Inf compact distance — coordinate overflow on conversion,
// underflow pile-ups, quantizer corner cases — fails toward "keep the row",
// so pathological inputs degrade to a full re-rank, never a wrong answer.

import (
	"math"

	"repro/internal/points"
)

// ConfScanPrecision is the Conf key selecting the kNN-join bucket scan
// precision ("f64" default, or "f32" for the compact path with exact
// re-rank). The serving daemon has its own knob (serve.scan.precision)
// which additionally accepts "q8".
const ConfScanPrecision = "mr.scan.precision"

// Scan precision values shared by the mr.* knob and the serving knob.
const (
	ScanF64 = "f64"
	ScanF32 = "f32"
	ScanQ8  = "q8"
)

// ValidScanPrecision reports whether s is a usable kNN-join bucket scan
// precision. The empty string means "default" (f64). q8 is serving-only:
// join buckets have no precomputed codebook, and building one per bucket
// would cost more than the scan it saves.
func ValidScanPrecision(s string) bool {
	switch s {
	case "", ScanF64, ScanF32:
		return true
	}
	return false
}

// Bounds is the error contract between a finite compact squared distance
// and its exact float64 counterpart:
// |sqrt(d32) − sqrt(d64)| ≤ Rel·sqrt(d64) + Abs. A non-finite compact
// distance (overflow to +Inf, NaN) carries no information and every kernel
// routes it to the exact path instead.
// KeepThresh is sound for any Rel in [0, 1) and Abs ≥ 0; the constructors
// below build Rel/Abs with ≥8x margin over worst-case rounding, so the
// shortlists they gate stay tiny on real data.
type Bounds struct {
	Rel float64
	Abs float64
}

// F32Bounds bounds a float32 mirror scan: dim-dimensional rows whose
// float64 source coordinates are bounded by maxAbs in magnitude (both
// operands — use the larger of the block's and the query's maximum).
//
//   - Rel covers the relative rounding of dim float32 subtract/multiply/add
//     steps (worst case ~(dim+2)·2⁻²⁴ on the squared distance, i.e. half
//     that on the distance; (dim+6)·2⁻²⁰ is ≥16x margin).
//   - Abs covers coordinate conversion error (≤ maxAbs·2⁻²⁴ per coordinate,
//     so ≤ √dim·2·maxAbs·2⁻²⁴ on the distance; the 2⁻¹⁸ factor is 64x
//     margin) plus a √dim·2⁻⁵⁵ floor for float32 underflow: subnormal
//     squares carry absolute error up to ~2⁻¹²⁶ each, which perturbs the
//     distance by at most ~√dim·2⁻⁶³.
func F32Bounds(dim int, maxAbs float64) Bounds {
	sd := math.Sqrt(float64(dim))
	return Bounds{
		Rel: float64(dim+6) * 0x1p-20,
		Abs: sd * (maxAbs*0x1p-18 + 0x1p-55),
	}
}

// Q8Bounds bounds a quantized-code scan against a per-query lookup table
// built from the exact query (BuildQ8LUT): errBound is
// points.Q8Params.ErrBound(), already 2x the worst-case Euclidean
// displacement between a stored row and its dequantized form. Rel covers
// the float32 rounding of the table entries and their summation; the floor
// covers underflow as in F32Bounds.
func Q8Bounds(dim int, errBound float64) Bounds {
	return Bounds{
		Rel: float64(dim+6) * 0x1p-20,
		Abs: errBound + math.Sqrt(float64(dim))*0x1p-55,
	}
}

// Valid reports whether the bounds are usable (finite, Rel < 1). Invalid
// bounds would still be sound — the threshold degenerates to
// "keep everything" — but a caller holding them should prefer the
// plain float64 path.
func (b Bounds) Valid() bool {
	return b.Rel >= 0 && b.Rel < 1 && b.Abs >= 0 &&
		!math.IsInf(b.Rel, 0) && !math.IsInf(b.Abs, 0) &&
		!math.IsNaN(b.Rel) && !math.IsNaN(b.Abs)
}

// KeepThresh returns the shortlist admission threshold for a compact
// squared distance b32 (float64-promoted) of an observed row: every row
// whose exact distance ties or beats that row's exact distance satisfies
// float64(d32) ≤ KeepThresh(b32). With b32 the k-th smallest compact
// distance seen, rows above the threshold are provably outside the top-k
// (and not tied with its boundary).
func (b Bounds) KeepThresh(b32 float64) float64 {
	if !(b32 < inf) || !(b.Rel < 1) {
		return inf
	}
	s := math.Sqrt(b32)
	u := (s + b.Abs) / (1 - b.Rel) // ≥ exact distance of the compact-best row
	t := u*(1+b.Rel) + b.Abs       // ≥ compact distance of any row at least that close
	return t * t
}

// sqDist32 mirrors sqDistFlat in float32.
func sqDist32(a, b []float32, dim int) float32 {
	switch dim {
	case 2:
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		s := d0 * d0
		s += d1 * d1
		return s
	case 3:
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		s := d0 * d0
		s += d1 * d1
		s += d2 * d2
		return s
	}
	var s float32
	for t := 0; t < dim; t++ {
		d := a[t] - b[t]
		s += d * d
	}
	return s
}

// Q8LUT is the per-query lookup table of a quantized scan: Tab[d·256+c] is
// the float32 squared residual between query coordinate d and code c's
// dequantized value, so a row's compact squared distance is dim table
// loads and adds — no multiplies, and only one byte of coordinate data
// streamed per dimension.
type Q8LUT struct {
	Tab []float32
}

// BuildQ8LUT fills the table for query q (exact float64 coordinates)
// against the block's quantization parameters, reusing lut's storage.
func BuildQ8LUT(p points.Q8Params, q []float64, lut *Q8LUT) {
	dim := p.Dim()
	need := dim * 256
	if cap(lut.Tab) < need {
		lut.Tab = make([]float32, need)
	}
	lut.Tab = lut.Tab[:need]
	for d := 0; d < dim; d++ {
		qd, mn, sc := q[d], p.Min[d], p.Scale[d]
		row := lut.Tab[d*256 : (d+1)*256]
		for c := range row {
			diff := qd - (mn + sc*float64(c))
			row[c] = float32(diff * diff)
		}
	}
}

// q8Dist sums the table entries of one row's codes.
func q8Dist(codes []uint8, tab []float32) float32 {
	var s float32
	base := 0
	for _, c := range codes {
		s += tab[base+int(c)]
		base += 256
	}
	return s
}

// TopKRowsQ8 scans the listed rows of the quantized block into the
// shortlist (Reset by the caller with this query's k and Q8Bounds). Rows
// must be distinct (see TopKRows).
func TopKRowsQ8(codes []uint8, dim int, lut *Q8LUT, rows []int32, sl *TopKShortlist) {
	thr := sl.thr
	for _, r := range rows {
		i := int(r)
		d2 := q8Dist(codes[i*dim:(i+1)*dim], lut.Tab)
		if float64(d2) > thr {
			continue
		}
		sl.observe(r, d2)
		thr = sl.thr
	}
}

// TopKRangeQ8 scans rows [lo, hi) of the quantized block into the
// shortlist.
func TopKRangeQ8(codes []uint8, dim int, lut *Q8LUT, lo, hi int, sl *TopKShortlist) {
	thr := sl.thr
	for i := lo; i < hi; i++ {
		d2 := q8Dist(codes[i*dim:(i+1)*dim], lut.Tab)
		if float64(d2) > thr {
			continue
		}
		sl.observe(int32(i), d2)
		thr = sl.thr
	}
}

// TopKBatchQ8 is the multi-query variant of TopKRangeQ8: luts and sls are
// parallel per-query slices, and one pass over each row tile of the code
// block feeds every query's shortlist.
func TopKBatchQ8(codes []uint8, dim int, luts []Q8LUT, lo, hi int, sls []TopKShortlist) {
	batchTiles(lo, hi, len(sls), func(qi, tLo, tHi int) {
		TopKRangeQ8(codes, dim, &luts[qi], tLo, tHi, &sls[qi])
	})
}

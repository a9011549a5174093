package points

import (
	"math"
	"sync"
)

// Compact coordinate representations for the bandwidth-lean scan path.
//
// A Matrix32 mirrors a float64 SoA block in float32, and QuantizeQ8 reduces
// it further to one byte per coordinate with a per-dimension affine code.
// Both are derived representations: the float64 block stays the source of
// truth, and every kernel that scans a compact block re-ranks its shortlist
// against the float64 data (see internal/kernels), so the compression here
// only has to be cheap and bounded, never exact. Alongside the converted
// coordinates each conversion reports the largest absolute source
// coordinate, which the kernels need to build sound error bounds.

// Matrix32 is a float32 mirror of a coordinate block: n rows of dim floats,
// row-major, plus the largest absolute float64 source coordinate (MaxAbs)
// seen during conversion. Coordinates outside float32 range convert to ±Inf;
// the compact kernels route any non-finite arithmetic to the exact float64
// path, so an overflowing mirror is slow but never wrong.
type Matrix32 struct {
	dim    int
	n      int
	data   []float32
	maxAbs float64
}

// N returns the number of rows.
func (c *Matrix32) N() int { return c.n }

// Dim returns the row dimensionality.
func (c *Matrix32) Dim() int { return c.dim }

// Data exposes the flat float32 storage (len N()*Dim()).
func (c *Matrix32) Data() []float32 { return c.data[:c.n*c.dim] }

// MaxAbs returns the largest |coordinate| of the float64 source block.
func (c *Matrix32) MaxAbs() float64 { return c.maxAbs }

// Set fills the mirror from m's coordinate block.
func (c *Matrix32) Set(m *Matrix) {
	data := m.Data()
	c.dim, c.n = m.Dim(), m.N()
	if cap(c.data) < len(data) {
		c.data = make([]float32, len(data))
	}
	c.data = c.data[:len(data)]
	c.maxAbs = downTo32(c.data, data)
}

// downTo32 converts src into dst (same length) and returns the largest
// absolute source value. NaNs contribute nothing to the maximum.
func downTo32(dst []float32, src []float64) float64 {
	var maxAbs float64
	for i, v := range src {
		dst[i] = float32(v)
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs
}

// ToFloat32 converts a flat float64 block, returning the float32 copy and
// the largest absolute source value.
func ToFloat32(src []float64) ([]float32, float64) {
	dst := make([]float32, len(src))
	maxAbs := downTo32(dst, src)
	return dst, maxAbs
}

// matrix32Pool recycles Matrix32 backing arrays across kNN-join buckets, like
// matrixPool does for the float64 decode path.
var matrix32Pool = sync.Pool{New: func() any { return new(Matrix32) }}

// GetMatrix32 returns a pooled Matrix32 filled from m.
func GetMatrix32(m *Matrix) *Matrix32 {
	c := matrix32Pool.Get().(*Matrix32)
	c.Set(m)
	return c
}

// PutMatrix32 returns c to the pool. The caller must not retain c or any
// slice obtained from it.
func PutMatrix32(c *Matrix32) { matrix32Pool.Put(c) }

// Q8Params is the per-dimension affine code of an 8-bit quantized block:
// coordinate x of dimension d encodes as round((x − Min[d]) / Scale[d]),
// clamped to [0, 255], and decodes as Min[d] + Scale[d]·code. A dimension
// with zero spread has Scale 0 and every code 0.
type Q8Params struct {
	Min   []float64
	Scale []float64
}

// Dim returns the dimensionality of the code.
func (p Q8Params) Dim() int { return len(p.Min) }

// Valid reports whether the parameters describe a usable dim-dimensional
// code: matching lengths and finite values with non-negative scales.
func (p Q8Params) Valid(dim int) bool {
	if len(p.Min) != dim || len(p.Scale) != dim {
		return false
	}
	for d := 0; d < dim; d++ {
		if !isFinite(p.Min[d]) || !isFinite(p.Scale[d]) || p.Scale[d] < 0 {
			return false
		}
	}
	return true
}

// Dequant decodes one coordinate.
func (p Q8Params) Dequant(d int, code uint8) float64 {
	return p.Min[d] + p.Scale[d]*float64(code)
}

// ErrBound returns a Euclidean-distance error bound for the code: the
// rounding residual per dimension is at most Scale[d]/2, so the distance
// between a point and its dequantized form is at most
// sqrt(Σ (Scale[d]/2)²) = ErrBound()/2. Returning the doubled value gives
// the kernels' threshold math a built-in 2x safety margin.
func (p Q8Params) ErrBound() float64 {
	var s float64
	for _, sc := range p.Scale {
		s += sc * sc
	}
	return math.Sqrt(s)
}

// QuantizeQ8 builds the 8-bit code of a flat float64 block (rows of dim).
// ok is false when the block cannot be quantized — any non-finite
// coordinate, or a per-dimension spread too large for a finite scale.
func QuantizeQ8(data []float64, dim int) (codes []uint8, p Q8Params, ok bool) {
	if dim <= 0 || len(data)%dim != 0 {
		return nil, Q8Params{}, false
	}
	mins := make([]float64, dim)
	maxs := make([]float64, dim)
	for d := 0; d < dim; d++ {
		mins[d], maxs[d] = math.Inf(1), math.Inf(-1)
	}
	for i := 0; i < len(data); i += dim {
		for d := 0; d < dim; d++ {
			v := data[i+d]
			if !isFinite(v) {
				return nil, Q8Params{}, false
			}
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	scales := make([]float64, dim)
	if len(data) > 0 {
		for d := 0; d < dim; d++ {
			sc := (maxs[d] - mins[d]) / 255
			if !isFinite(sc) {
				return nil, Q8Params{}, false
			}
			scales[d] = sc
		}
	} else {
		for d := 0; d < dim; d++ {
			mins[d] = 0
		}
	}
	codes = make([]uint8, len(data))
	for i := 0; i < len(data); i += dim {
		for d := 0; d < dim; d++ {
			if scales[d] == 0 {
				continue // codes[i+d] stays 0, dequantizes to Min[d]
			}
			c := math.Round((data[i+d] - mins[d]) / scales[d])
			if c < 0 {
				c = 0
			} else if c > 255 {
				c = 255
			}
			codes[i+d] = uint8(c)
		}
	}
	return codes, Q8Params{Min: mins, Scale: scales}, true
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

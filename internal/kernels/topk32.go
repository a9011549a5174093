package kernels

// Compact (float32) top-k scan kernels with exact float64 re-rank, under
// the Bounds contract of compact.go (k = 1 is the single-NN case). The
// scan streams the float32 mirror and collects every row that could belong
// to the true top-k under the Bounds contract; the caller re-ranks the
// surviving rows with the exact TopKRows, so the final (row, distance) set
// — including the lowest-row-index tie rule — is bit-identical to a pure
// float64 TopKRange.
//
// Soundness: the shortlist tracks the k smallest finite compact distances
// seen in a size-k max-heap. Whenever the heap is full with root h, there
// exist k observed rows with compact squared distance ≤ h, so by the
// Bounds contract there are k rows whose exact distance is at most
// u = (√h + Abs)/(1 − Rel) — hence the true k-th exact distance is ≤ u,
// and every row of the true top-k (or tied with its boundary) has compact
// squared distance ≤ KeepThresh(h) = (u·(1+Rel) + Abs)². Rows are only
// dropped when strictly above that threshold, and the threshold only
// tightens as the heap improves, so no true top-k row is ever discarded.
// A NaN compact distance is admitted and never tightens the threshold, and
// a +Inf compact distance never enters the heap, so overflow degrades to a
// larger re-rank, never a wrong answer.

// shortlistCompactAt is the shortlist length that triggers re-filtering
// against the tightened threshold. Genuine mass ties can exceed any fixed
// cap, so the limit doubles when a compaction fails to shrink the list.
const shortlistCompactAt = 256

// TopKShortlist collects candidate rows during a compact top-k scan. Reset
// it with the query's k and the scan's Bounds, feed it via the compact
// top-k kernels, then Finish and re-rank the surviving rows with TopKRows
// over the float64 data.
type TopKShortlist struct {
	Rows  []int32
	d2    []float32
	k     int
	heap  []float64 // max-heap of the k smallest finite compact distances
	thr   float64
	bnd   Bounds
	limit int
}

// Reset prepares the shortlist for one scan keeping storage; k must be at
// least 1.
func (sl *TopKShortlist) Reset(k int, bnd Bounds) {
	if k < 1 {
		panic("kernels: TopKShortlist needs k >= 1")
	}
	sl.Rows = sl.Rows[:0]
	sl.d2 = sl.d2[:0]
	sl.k = k
	sl.heap = sl.heap[:0]
	sl.thr = inf
	sl.bnd = bnd
	sl.limit = shortlistCompactAt
	// The list legitimately holds k rows at all times; keep the compaction
	// trigger clear of that floor so large k cannot thrash refilter.
	if sl.limit < 2*k {
		sl.limit = 2 * k
	}
}

// observe folds one scanned row into the shortlist. Comparisons are
// arranged so a NaN compact distance is admitted and never enters the
// heap, and a +Inf compact distance (admissible only while the threshold
// is still +Inf) likewise stays out of the heap.
func (sl *TopKShortlist) observe(row int32, d32 float32) {
	df := float64(d32)
	if df > sl.thr {
		return
	}
	sl.Rows = append(sl.Rows, row)
	sl.d2 = append(sl.d2, d32)
	if df < inf {
		if len(sl.heap) < sl.k {
			sl.heap = append(sl.heap, df)
			for i := len(sl.heap) - 1; i > 0; {
				p := (i - 1) / 2
				if sl.heap[p] >= sl.heap[i] {
					break
				}
				sl.heap[p], sl.heap[i] = sl.heap[i], sl.heap[p]
				i = p
			}
			if len(sl.heap) == sl.k {
				sl.thr = sl.bnd.KeepThresh(sl.heap[0])
			}
		} else if df < sl.heap[0] {
			sl.heap[0] = df
			sl.heapDown()
			sl.thr = sl.bnd.KeepThresh(sl.heap[0])
		}
	}
	if len(sl.Rows) >= sl.limit {
		sl.refilter()
		if 2*len(sl.Rows) > sl.limit {
			sl.limit = 2 * len(sl.Rows)
		}
	}
}

func (sl *TopKShortlist) heapDown() {
	n := len(sl.heap)
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && sl.heap[r] > sl.heap[c] {
			c = r
		}
		if sl.heap[c] <= sl.heap[i] {
			return
		}
		sl.heap[i], sl.heap[c] = sl.heap[c], sl.heap[i]
		i = c
	}
}

// refilter drops rows excluded by the current threshold (NaN survives).
func (sl *TopKShortlist) refilter() {
	w := 0
	for i, r := range sl.Rows {
		if !(float64(sl.d2[i]) > sl.thr) {
			sl.Rows[w] = r
			sl.d2[w] = sl.d2[i]
			w++
		}
	}
	sl.Rows = sl.Rows[:w]
	sl.d2 = sl.d2[:w]
}

// Finish applies the final threshold and returns the surviving rows, each
// listed at most once. The slice aliases the shortlist and is invalidated
// by the next Reset.
func (sl *TopKShortlist) Finish() []int32 {
	sl.refilter()
	return sl.Rows
}

// TopKRange32 scans rows [lo, hi) of the float32 mirror into the shortlist
// (Reset by the caller with this query's k and the scan's Bounds). The
// admission reject — the overwhelmingly common case once the heap is full —
// is hoisted out of observe so the hot loop pays one comparison per row;
// NaN fails the rejection test and reaches observe, as required.
func TopKRange32(data32 []float32, dim int, q32 []float32, lo, hi int, sl *TopKShortlist) {
	thr := sl.thr
	for i := lo; i < hi; i++ {
		d2 := sqDist32(q32, data32[i*dim:(i+1)*dim], dim)
		if float64(d2) > thr {
			continue
		}
		sl.observe(int32(i), d2)
		thr = sl.thr
	}
}

// TopKRows32 scans the listed rows of the float32 mirror into the
// shortlist. Rows must be distinct (see TopKRows).
func TopKRows32(data32 []float32, dim int, q32 []float32, rows []int32, sl *TopKShortlist) {
	thr := sl.thr
	for _, r := range rows {
		i := int(r)
		d2 := sqDist32(q32, data32[i*dim:(i+1)*dim], dim)
		if float64(d2) > thr {
			continue
		}
		sl.observe(r, d2)
		thr = sl.thr
	}
}

// TopKBatch32 is the multi-query variant of TopKRange32: one pass over
// each row tile of the float32 mirror feeds every query's shortlist
// (qs32 flat, len(sls)*dim; each shortlist Reset by the caller).
func TopKBatch32(data32 []float32, dim int, qs32 []float32, lo, hi int, sls []TopKShortlist) {
	batchTiles(lo, hi, len(sls), func(qi, tLo, tHi int) {
		TopKRange32(data32, dim, qs32[qi*dim:(qi+1)*dim], tLo, tHi, &sls[qi])
	})
}

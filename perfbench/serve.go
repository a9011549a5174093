package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/kernels"
	"repro/internal/lsh"
	"repro/internal/model"
	"repro/internal/points"
	"repro/internal/serve"
)

// trained is a finished clustering of the serving data set, ready for
// core.ExportModel.
type trained struct {
	ds     *points.Dataset
	res    *core.Result
	peaks  []int32
	labels []int32
	seed   int64 // of the LSH functions
}

// blobModel clusters a blob data set straight from its geometry instead of
// training (a 300K-point training run would dominate the benchmark):
// greedy farthest-point peaks over a sample, nearest-peak labels,
// densities decaying with peak distance, and the d_c estimator and LSH
// width solver the pipeline itself uses. The serving path sees a valid
// model of the same size, geometry and layouts.
func blobModel(ds *points.Dataset, k int, seed int64) (*trained, error) {
	n := ds.N()
	dc := points.PercentileDistance(ds, 0.02, 100000, subSeed(seed, 2))
	rng := points.NewRand(subSeed(seed, 3))
	sample := rng.Perm(n)[:min(n, 64*k)]
	peaks := []int32{int32(sample[0])}
	nearest := func(i int) (int, float64) {
		best, bestD := 0, points.SqDist(ds.Points[i].Pos, ds.Points[peaks[0]].Pos)
		for c := 1; c < len(peaks); c++ {
			if d := points.SqDist(ds.Points[i].Pos, ds.Points[peaks[c]].Pos); d < bestD {
				best, bestD = c, d
			}
		}
		return best, bestD
	}
	for len(peaks) < k {
		far, farD := sample[0], -1.0
		for _, i := range sample {
			if _, d := nearest(i); d > farD {
				far, farD = i, d
			}
		}
		peaks = append(peaks, int32(far))
	}
	labels := make([]int32, n)
	rho := make([]float64, n)
	for i := range labels {
		c, d2 := nearest(i)
		labels[i] = int32(c)
		rho[i] = 1 / (1 + d2/(dc*dc))
	}
	const m, pi, accuracy = 10, 3, 0.99
	w, err := lsh.SolveWidth(accuracy, dc, pi, m)
	if err != nil {
		return nil, err
	}
	res := &core.Result{Rho: rho}
	res.Stats.Dc, res.Stats.M, res.Stats.Pi, res.Stats.W = dc, m, pi, w
	return &trained{ds: ds, res: res, peaks: peaks, labels: labels, seed: subSeed(seed, 1)}, nil
}

// queryStream is the serving traffic: every training point jittered by a
// d_c/2-scale Gaussian, in seeded random order (the data set is laid out
// cluster by cluster).
func queryStream(ds *points.Dataset, dc float64, seed int64) [][]float64 {
	rng := points.NewRand(subSeed(seed, 4))
	qs := make([][]float64, ds.N())
	for i, p := range ds.Points {
		q := make([]float64, len(p.Pos))
		for j, x := range p.Pos {
			q[j] = x + rng.NormFloat64()*dc/2
		}
		qs[i] = q
	}
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return qs
}

// served is one set-up instance: a server on a loopback port and the
// ingest store behind it.
type served struct {
	srv   *serve.Server
	store *ingest.Store
}

func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// direct answers queries the way the server does (base + delta), without
// HTTP.
func (s *served) direct(qs []points.Vector, exact bool) ([]serve.Assignment, []error, serve.ScanStats) {
	return s.store.AssignBatch(qs, serve.BatchOpts{ExactOnly: exact})
}

// setUp exports the model, opens the ingest store on it (which builds the
// serving engine) and starts a server with every knob at its default.
func setUp(t *trained, storeDir string) (*served, time.Duration, time.Duration, error) {
	var mdl *model.Model
	var err error
	export := timed(func() {
		mdl, err = core.ExportModel(t.ds, t.res, t.peaks, t.labels, nil, t.seed)
	})
	if err != nil {
		return nil, 0, 0, err
	}
	s := &served{srv: serve.New(serve.Config{})}
	build := timed(func() {
		s.store, err = ingest.Open(ingest.Config{Dir: storeDir, OnSwap: s.srv.UseEngine},
			func() (*model.Model, error) { return mdl, nil })
	})
	if err != nil {
		return nil, 0, 0, err
	}
	s.srv.SetIngest(s.store)
	s.srv.UseEngine(s.store.Engine())
	if err := s.srv.Start("127.0.0.1:0"); err != nil {
		s.store.Close() //nolint:errcheck // already failing
		return nil, 0, 0, err
	}
	return s, export, build, nil
}

// backend is one of the run's models: its data and query stream, the
// store and server in front of it, a client to that server, and the
// ingests it acknowledged.
type backend struct {
	t       *trained
	queries [][]float64
	s       *served
	cl      *client
	comp    *compactor
	acked   ackLog
	n0      int   // model rows before any ingest
	id0     int64 // first ID the store hands out
}

// read sends read request i: readPoints queries of the stream.
func (b *backend) read(i, readPoints int) bool {
	var resp struct{ Results []serve.Assignment }
	err := b.cl.post("/assign", readBatch(b.queries, i, readPoints), &resp)
	return err == nil && len(resp.Results) == readPoints
}

// write ingests query i of the stream and counts the ack towards the next
// compaction.
func (b *backend) write(i int) bool {
	var resp serve.IngestResponse
	err := b.cl.post("/ingest", [][]float64{b.queries[i%len(b.queries)]}, &resp)
	if err != nil || len(resp.Results) != 1 {
		return false
	}
	b.acked.add(resp.Results[0].ID)
	b.comp.acked()
	return true
}

// slices is the number of alternating open- and closed-loop slices the
// measured window is cut into: each open-loop slice takes a sixth of the
// window and each closed-loop slice a third, so the end-to-end figures,
// which come from the closed loop, average two thirds of it.
const slices = 4

// runServeIngest drives the serving workload on serveModels models, each
// generated from its own seed and served by its own store and server:
// set-up, warm-up, open-loop slices at a fixed rate, where every
// ingestEvery-th request is an /ingest and each store is compacted after
// every compactEvery points it acked, alternating with closed-loop
// /assign slices of closedClients clients (throughput), then the output
// checks. Every /assign carries readPoints queries; every /ingest carries
// one point. Several models per run, because one model's LSH functions
// and blob layout move the rows a query scans by about 10% either way.
func runServeIngest(r *run) error {
	sz := r.sz
	bs := make([]*backend, sz.serveModels)
	for j := range bs {
		seed := subSeed(r.seed, j)
		ds := dataset.Blobs("serve", sz.serveN, 8, sz.serveK, 100, 2.5, seed)
		t, err := blobModel(ds, sz.serveK, seed)
		if err != nil {
			return err
		}
		bs[j] = &backend{t: t, queries: queryStream(ds, t.res.Stats.Dc, seed)}
	}
	closeAll := func() error {
		var err error
		for _, b := range bs {
			if b.s != nil {
				if cerr := b.s.close(); err == nil {
					err = cerr
				}
				b.s = nil
			}
		}
		return err
	}
	defer closeAll() //nolint:errcheck // the checks below already ran

	var setups, exports, builds []float64
	for i := 0; i < sz.setups; i++ {
		if err := closeAll(); err != nil {
			return err
		}
		runtime.GC()
		start := time.Now()
		var export, build time.Duration
		for j, b := range bs {
			s, e, bd, err := setUp(b.t, filepath.Join(r.dir, fmt.Sprintf("store-%d-%d", i, j)))
			if err != nil {
				return err
			}
			b.s = s
			export += e
			build += bd
		}
		setups = append(setups, time.Since(start).Seconds())
		exports = append(exports, export.Seconds())
		builds = append(builds, build.Seconds())
	}
	r.metrics["setup_s"] = median(setups)
	r.metrics["model.export_s"] = median(exports)
	r.metrics["serve.engine_build_s"] = median(builds)
	r.sampleHeap()
	for _, b := range bs {
		b.n0 = b.s.store.Engine().Model().N()
		b.id0 = b.s.store.Info().NextID
		b.cl = newClient(b.s.srv.Addr())
		defer b.cl.close()
		b.comp = newCompactor(b.s.store, sz.compactEvery)
	}
	waitCompactions := func() {
		for _, b := range bs {
			b.comp.wait()
		}
	}

	for _, b := range bs { // warm-up, not measured
		_, _, _ = closedLoop(sz.warmup/time.Duration(len(bs)), 0, func(i int) bool { return b.read(i, sz.readPoints) })
	}

	// The measured window alternates open-loop and closed-loop slices, so
	// each phase samples the whole window rather than one part of it (the
	// machine's speed drifts over seconds). The open loop sends runs of
	// ingestEvery requests, the first a write, to the models in turn; a
	// closed-loop slice reads each model for an equal share of it, one
	// model at a time, so only one model's rows compete for the cache. In
	// a traced run the second closed-loop slice records a span per
	// request; the throughput it loses against the first is the tracing
	// overhead.
	rate := sz.ingestRate
	openSlice, closedSlice := r.window/6, r.window/3
	nSlice := int(rate * openSlice.Seconds())
	isWrite := func(i int) bool { return i%sz.ingestEvery == 0 }
	target := func(i int) *backend { return bs[i/sz.ingestEvery%len(bs)] }
	var timings []timing
	var openDur time.Duration
	var closedLat [2][]float64
	var closedDur [2]time.Duration
	closedNext := make([]int, len(bs))
	ctrDelta := map[string]int64{}
	for k := 0; k < slices; k++ {
		runtime.GC()
		if k%2 == 0 {
			off := len(timings)
			c0 := serveCounters(bs)
			t0 := time.Now()
			timings = append(timings, openLoop(nSlice, rate, func(i int) bool {
				n := off + i
				if isWrite(n) {
					// Writes ingest the second half of the query stream.
					return target(n).write(len(target(n).queries)/2 + n)
				}
				return target(n).read(n, sz.readPoints)
			})...)
			openDur += time.Since(t0)
			for key, v := range serveCounters(bs) {
				ctrDelta[key] += v - c0[key]
			}
			continue
		}
		// Compactions triggered by the open loop finish first, so every
		// closed-loop slice reads the same store state however fast the
		// machine is; their cost to concurrent traffic shows in the
		// open-loop figures.
		waitCompactions()
		tracedSlice := r.traced && k == slices-1
		for j, b := range bs {
			do := func(i int) bool { return b.read(i, sz.readPoints) }
			if tracedSlice {
				do = func(i int) bool {
					t0 := time.Now()
					good := b.read(i, sz.readPoints)
					r.rec.add(0, 0, int64(i), "bench.closed_loop.assign", "bench", t0, time.Now())
					return good
				}
			}
			attempted, okMS, elapsed := closedLoop(closedSlice/time.Duration(len(bs)), closedNext[j], do)
			closedNext[j] += int(attempted)
			r.attempted += attempted
			r.failed += attempted - int64(len(okMS))
			closedLat[b2i(tracedSlice)] = append(closedLat[b2i(tracedSlice)], okMS...)
			closedDur[b2i(tracedSlice)] += elapsed
		}
	}
	waitCompactions()

	var lat, readLat, writeLat, late []float64
	for i, tm := range timings {
		r.op(!tm.ok)
		l := ms(tm.latency())
		lat = append(lat, l)
		late = append(late, ms(tm.lateness()))
		if isWrite(i) {
			writeLat = append(writeLat, l)
		} else {
			readLat = append(readLat, l)
		}
	}
	var compactS []float64
	for _, b := range bs {
		compactS = append(compactS, b.comp.seconds()...)
	}
	r.metrics["op_p99_ms"], r.info["op_tail_quantile"] = tailQuantile(lat)
	r.metrics["serve.read_p50_ms"] = quantile(readLat, 0.5)
	r.metrics["serve.read_p99_ms"], _ = tailQuantile(readLat)
	r.metrics["ingest.http_p50_ms"] = quantile(writeLat, 0.5)
	r.metrics["ingest.http_p99_ms"], r.info["ingest_tail_quantile"] = tailQuantile(writeLat)
	r.metrics["ingest.compact_s"] = median(compactS)
	r.metrics["ingest.compactions"] = float64(len(compactS))
	r.count("serve-ingest.compactions", int64(len(compactS)))
	r.metrics["bench.gen_late_p99_ms"] = quantile(late, 0.99)
	r.info["open_loop"] = map[string]any{"requests": len(timings), "rate_per_s": rate, "seconds": openDur.Seconds()}
	counterLayers(r, ctrDelta, openDur)

	// End to end: reads under the closed-loop client. Open-loop latency at
	// a low rate is dominated by how fast an idle virtual CPU wakes, which
	// on the shared calibration machine moved the p50 by 30% between runs;
	// it is reported per layer.
	qps := float64(len(closedLat[0])) / closedDur[0].Seconds()
	r.metrics["op_p50_ms"] = median(closedLat[0])
	r.metrics["work_per_s"] = qps * float64(sz.readPoints)
	r.metrics["serve.read_qps"] = qps
	r.info["closed_loop"] = map[string]any{"ok": []int{len(closedLat[0]), len(closedLat[1])}, "seconds": []float64{closedDur[0].Seconds(), closedDur[1].Seconds()}}
	if r.traced {
		r.metrics["trace.overhead_frac"] = frac(qps, float64(len(closedLat[1]))/closedDur[1].Seconds()) - 1
	}

	// Output checks.
	var agree float64
	var scanned int64
	for j, b := range bs {
		sample := b.queries[:sz.verify]
		agree += verifyAnswers(r, b.cl, b.s.direct, sample, sz.readPoints)
		scanned += checkIngest(r, fmt.Sprintf("serve-ingest.model%d", j), b, sample)
	}
	agree /= float64(len(bs))
	r.metrics["quality"] = agree
	r.metrics["serve.label_agree"] = agree
	r.metrics["serve.candidates_per_query"] = float64(scanned) / float64(len(bs)*sz.verify)

	if r.traced {
		b := bs[0]
		probeLayers(r, b.cl, b.s, b.queries[len(b.queries)/4:])
	}
	return nil
}

// serveCounters snapshots the servers' serve.* counters and the stores'
// ingest.* counters, summed over the backends.
func serveCounters(bs []*backend) map[string]int64 {
	c := map[string]int64{}
	for _, b := range bs {
		for k, v := range b.s.srv.Counters().Snapshot() {
			c[k] += v
		}
		for k, v := range b.s.store.Counters() {
			c[k] += v
		}
	}
	return c
}

// counterLayers reports the serving layer's counter deltas over the
// open-loop slices.
func counterLayers(r *run, delta map[string]int64, dur time.Duration) {
	d := func(k string) float64 { return float64(delta[k]) }
	r.metrics["serve.batch_points"] = frac(d(serve.CtrPoints), d(serve.CtrBatches))
	r.metrics["serve.busy_frac"] = frac(d(serve.CtrBusyUS), us(dur))
	r.metrics["serve.exact_fallback_frac"] = frac(d(serve.CtrExactScans), d(serve.CtrPoints))
	r.metrics["serve.shed_frac"] = frac(d(serve.CtrShed), d(serve.CtrRequests)+d(serve.CtrShed))
	r.metrics["ingest.wal_bytes_per_point"] = frac(d(ingest.CtrWALBytes), d(ingest.CtrPoints))
	r.metrics["ingest.delta_rows_per_query"] = frac(d(ingest.CtrDeltaScanned), d(serve.CtrPoints))
	r.count("serve-ingest.wal_bytes", delta[ingest.CtrWALBytes])
	r.count("serve-ingest.points", delta[ingest.CtrPoints])
}

// countDiffs counts answers that differ from the direct call's in any
// field /assign reports (Dist2 is not on the wire).
func countDiffs(got, want []serve.Assignment, errs []error) int {
	bad := 0
	for i := range got {
		w := want[i]
		w.Dist2 = 0
		if errs[i] != nil || got[i] != w {
			bad++
		}
	}
	return bad
}

// readBatch is the points of read request i: readPoints consecutive
// queries of the stream, wrapping around at its end.
func readBatch(queries [][]float64, i, readPoints int) [][]float64 {
	pts := make([][]float64, readPoints)
	for j := range pts {
		pts[j] = queries[(i*readPoints+j)%len(queries)]
	}
	return pts
}

// verifyAnswers sends the sample over HTTP, readPoints queries a request
// as the traffic does, checks each answer equals the direct call's, and
// returns the share whose cluster equals the exact full scan's
// (label_agree).
func verifyAnswers(r *run, cl *client, direct func([]points.Vector, bool) ([]serve.Assignment, []error, serve.ScanStats), sample [][]float64, readPoints int) float64 {
	qs := make([]points.Vector, len(sample))
	for i, q := range sample {
		qs[i] = q
	}
	got := make([]serve.Assignment, len(sample))
	httpFailed := 0
	for lo := 0; lo < len(sample); lo += readPoints {
		hi := min(lo+readPoints, len(sample))
		var resp struct{ Results []serve.Assignment }
		if err := cl.post("/assign", sample[lo:hi], &resp); err != nil || len(resp.Results) != hi-lo {
			httpFailed += hi - lo
			continue
		}
		copy(got[lo:hi], resp.Results)
	}
	want, errs, _ := direct(qs, false)
	bad := countDiffs(got, want, errs)
	r.check("serve.http_equals_direct", bad == 0 && httpFailed == 0,
		"%d of %d answers differ from the direct call (%d HTTP failures)", bad, len(sample), httpFailed)
	exact, exErrs, _ := direct(qs, true)
	agree := labelAgree(got, exact, exErrs)
	return agree
}

// labelAgree is the share of answers whose cluster equals the exact
// full-scan answer's.
func labelAgree(got, exact []serve.Assignment, errs []error) float64 {
	same := 0
	for i := range got {
		if errs[i] == nil && got[i].Cluster == exact[i].Cluster {
			same++
		}
	}
	return float64(same) / float64(len(got))
}

// ackLog collects the IDs of acknowledged ingests.
type ackLog struct {
	mu  sync.Mutex
	ack []int32
}

func (a *ackLog) add(id int32) {
	a.mu.Lock()
	a.ack = append(a.ack, id)
	a.mu.Unlock()
}

func (a *ackLog) ids() []int32 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int32(nil), a.ack...)
}

// checkIngest checks that every point a backend acked is stored exactly
// once: the acked IDs are distinct and fill [id0, NextID), the store holds
// n0 plus one row per ack, and after a final compaction the base rows past
// n0 carry exactly the acked IDs. With every point compacted, the rows
// the LSH path scans for the sample no longer depend on when compactions
// snapshotted the delta; they are gated as a work count (under key) and
// returned.
func checkIngest(r *run, key string, b *backend, sample [][]float64) int64 {
	s, n0, id0, acked := b.s, b.n0, b.id0, b.acked.ids()
	info := s.store.Info()
	r.check("ingest.ids", ingestIDsOK(acked, id0, info.NextID),
		"%d acked IDs are not distinct or do not fill [%d, %d)", len(acked), id0, info.NextID)
	r.check("ingest.rows", info.BaseN+info.DeltaPoints == n0+len(acked),
		"store holds %d+%d rows, want %d+%d", info.BaseN, info.DeltaPoints, n0, len(acked))
	if _, err := s.store.Compact(); err != nil {
		r.check("ingest.final_compaction", false, "%v", err)
		return 0
	}
	m := s.store.Engine().Model()
	var stored []int32
	for i := n0; i < m.N(); i++ {
		stored = append(stored, m.GlobalID(i))
	}
	r.check("ingest.compacted_ids", sameIDSet(stored, acked),
		"compacted base holds %d ingested rows for %d acks", len(stored), len(acked))
	r.count(key+".acked", int64(len(acked)))
	qs := make([]points.Vector, len(sample))
	for i, q := range sample {
		qs[i] = q
	}
	_, _, st := s.direct(qs, false)
	r.count(key+".candidates", st.Scanned)
	return st.Scanned
}

func ingestIDsOK(ids []int32, id0, next int64) bool {
	s := append([]int32(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if int64(len(s)) != next-id0 {
		return false
	}
	for i, id := range s {
		if int64(id) != id0+int64(i) {
			return false
		}
	}
	return true
}

func sameIDSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	x := append([]int32(nil), a...)
	y := append([]int32(nil), b...)
	sort.Slice(x, func(i, j int) bool { return x[i] < x[j] })
	sort.Slice(y, func(i, j int) bool { return y[i] < y[j] })
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// compactor calls Store.Compact after every `every` acked ingests, one
// compaction at a time, off the request path.
type compactor struct {
	store *ingest.Store
	every int
	mu    sync.Mutex
	n     int
	secs  []float64
	wg    sync.WaitGroup
	run   sync.Mutex // serializes compactions
}

func newCompactor(st *ingest.Store, every int) *compactor {
	return &compactor{store: st, every: every}
}

func (c *compactor) acked() {
	c.mu.Lock()
	c.n++
	due := c.n%c.every == 0
	c.mu.Unlock()
	if !due {
		return
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.run.Lock()
		defer c.run.Unlock()
		start := time.Now()
		if _, err := c.store.Compact(); err != nil {
			logf("compaction failed: %v", err)
			return
		}
		c.mu.Lock()
		c.secs = append(c.secs, time.Since(start).Seconds())
		c.mu.Unlock()
	}()
}

func (c *compactor) wait() { c.wg.Wait() }

func (c *compactor) seconds() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.secs...)
}

// probeLayers times, one call at a time with no other traffic, each call
// an /assign makes into a layer: lsh.Layouts.Keys, Engine.CandidateRows,
// kernels.NNRows on those candidates, Engine.AssignBatch,
// Store.AssignBatch and Store.IngestPoints, and the whole
// HTTP round trip. Every probe times one kind of call on a fresh query:
// timing the calls back to back on one query would run the later ones on
// rows the earlier ones just pulled into cache. A layer's self time is
// the median of its call minus the medians of the calls it makes.
func probeLayers(r *run, cl *client, s *served, qs [][]float64) {
	eng := s.store.Engine()
	m := eng.Model()
	layouts := m.Layouts()
	type probe struct {
		name, layer string
		call        func(q points.Vector) bool
	}
	var buf []int32
	probes := []probe{
		{"lsh.Layouts.Keys", "lsh", func(q points.Vector) bool { layouts.Keys(q); return true }},
		{"serve.Engine.CandidateRows", "serve", func(q points.Vector) bool { buf, _ = eng.CandidateRows(q, buf[:0]); return true }},
		{"kernels.NNRows", "kernels", nil}, // timed around the scan only, below
		{"serve.Engine.AssignBatch", "serve", func(q points.Vector) bool {
			_, errs, _ := eng.AssignBatch([]points.Vector{q}, false)
			return errs[0] == nil
		}},
		{"http /assign", "http", func(q points.Vector) bool {
			var resp struct{ Results []serve.Assignment }
			return cl.post("/assign", [][]float64{q}, &resp) == nil
		}},
		{"ingest.Store.AssignBatch", "ingest", func(q points.Vector) bool {
			_, errs, _ := s.direct([]points.Vector{q}, false)
			return errs[0] == nil
		}},
		{"ingest.Store.IngestPoints", "ingest", func(q points.Vector) bool {
			_, err := s.store.IngestPoints([][]float64{q})
			return err == nil
		}},
	}
	times := make(map[string][]float64, len(probes))
	for i := 0; i < r.sz.probes*len(probes); i++ {
		p := probes[i%len(probes)]
		q := points.Vector(qs[i])
		g := r.rec.id()
		if p.call == nil {
			buf, _ = eng.CandidateRows(q, buf[:0])
		}
		t0 := time.Now()
		ok := true
		if p.call == nil {
			kernels.NNRows(m.Data, m.Dim, q, buf)
		} else {
			ok = p.call(q)
		}
		t1 := time.Now()
		r.rec.add(0, g, g, p.name, p.layer, t0, t1)
		r.rec.add(g, 0, g, "bench.probe", "bench", t0, t1)
		if ok {
			times[p.name] = append(times[p.name], us(t1.Sub(t0)))
		}
	}
	med := func(name string) float64 { return median(times[name]) }
	keys, cands, scan, assign := med("lsh.Layouts.Keys"), med("serve.Engine.CandidateRows"), med("kernels.NNRows"), med("serve.Engine.AssignBatch")
	inner := med("ingest.Store.AssignBatch")
	r.metrics["ingest.merge_us"] = inner - assign
	r.metrics["ingest.append_us"] = med("ingest.Store.IngestPoints")
	r.metrics["self.ingest_s"] = (inner - assign) / 1e6
	r.metrics["lsh.keys_us"] = keys
	r.metrics["serve.candidates_us"] = cands
	r.metrics["kernels.scan_us"] = scan
	r.metrics["serve.assign_us"] = assign
	r.metrics["serve.http_overhead_us"] = med("http /assign") - inner
	r.metrics["self.lsh_s"] = keys / 1e6
	r.metrics["self.kernels_s"] = scan / 1e6
	r.metrics["self.serve_s"] = (assign - keys - scan) / 1e6
	r.metrics["self.http_s"] = r.metrics["serve.http_overhead_us"] / 1e6
}

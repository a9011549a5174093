package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval: a call into a layer made by the
// benchmark, or a span the program's own obs.Trace collector produced.
// Spans of one operation (a fit, a join, a probed query) share Group.
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"` // 0 = root
	Group  int64     `json:"group"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Start  time.Time `json:"-"`
	End    time.Time `json:"-"`
}

// recorder keeps spans in memory until the run ends. A nil recorder (the
// untraced run) records nothing, so instrumented code costs one nil check.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// id reserves a span ID so children can name their parent before the
// parent span ends.
func (rc *recorder) id() int64 {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.next++
	return rc.next
}

// add records a finished span; id 0 allocates one.
func (rc *recorder) add(id, parent, group int64, name, layer string, start, end time.Time) int64 {
	if rc == nil {
		return 0
	}
	if id == 0 {
		id = rc.id()
	}
	rc.mu.Lock()
	rc.spans = append(rc.spans, span{ID: id, Parent: parent, Group: group, Name: name, Layer: layer, Start: start, End: end})
	rc.mu.Unlock()
	return id
}

// addJobTraces imports the program's obs traces of one pipeline call
// under the benchmark span parent: each DAG node span ("dag" layer)
// parents the task spans of its job, map tasks become one task interval
// whose phases (map/combine/sort/shuffle, which partition the task's wall
// time) are laid end to end inside it, and reduce-side fetch spans (the
// rpcmr transport) nest inside their reduce span.
func (rc *recorder) addJobTraces(parent, group int64, traces []obs.JobTrace) {
	if rc == nil {
		return
	}
	type nodeRef struct {
		id         int64
		start, end time.Time
	}
	nodes := map[string][]nodeRef{}
	for _, jt := range traces {
		if !strings.HasPrefix(jt.Job, "dag:") {
			continue
		}
		for _, s := range jt.Spans {
			if s.Phase != obs.PhaseDag {
				continue
			}
			end := s.Start.Add(s.Wall)
			id := rc.add(0, parent, group, "dag.node:"+s.Job, "dag", s.Start, end)
			nodes[s.Job] = append(nodes[s.Job], nodeRef{id, s.Start, end})
		}
	}
	parentOf := func(job string, at time.Time) int64 {
		for _, n := range nodes[job] {
			if !at.Before(n.start) && !at.After(n.end) {
				return n.id
			}
		}
		return parent
	}
	for _, jt := range traces {
		if strings.HasPrefix(jt.Job, "dag:") {
			continue
		}
		type taskKey struct {
			job, task, worker int
			mapSide           bool
		}
		groups := map[taskKey][]obs.Span{}
		var keys []taskKey
		for _, s := range jt.Spans {
			k := taskKey{s.JobID, s.Task, s.Worker, s.Phase != obs.PhaseReduce && s.Phase != obs.PhaseFetch}
			if _, ok := groups[k]; !ok {
				keys = append(keys, k)
			}
			groups[k] = append(groups[k], s)
		}
		for _, k := range keys {
			ss := groups[k]
			if k.mapSide {
				var total time.Duration
				for _, s := range ss {
					total += s.Wall
				}
				start := ss[0].Start
				tid := rc.add(0, parentOf(jt.Job, start), group, "task.map:"+jt.Job, "mapreduce", start, start.Add(total))
				at := start
				for _, s := range ss {
					rc.add(0, tid, group, "phase."+string(s.Phase), "mapreduce", at, at.Add(s.Wall))
					at = at.Add(s.Wall)
				}
				continue
			}
			var reduceID int64
			for _, s := range ss {
				if s.Phase == obs.PhaseReduce {
					reduceID = rc.add(0, parentOf(jt.Job, s.Start), group, "phase.reduce:"+jt.Job, "mapreduce", s.Start, s.Start.Add(s.Wall))
				}
			}
			for _, s := range ss {
				if s.Phase == obs.PhaseFetch {
					p := reduceID
					if p == 0 {
						p = parentOf(jt.Job, s.Start)
					}
					rc.add(0, p, group, "phase.fetch:"+jt.Job, "rpcmr", s.Start, s.Start.Add(s.Wall))
				}
			}
		}
	}
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its children cover.
func (rc *recorder) selfTimes() map[string]float64 {
	out := map[string]float64{}
	if rc == nil {
		return out
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range rc.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range rc.spans {
		self := s.End.Sub(s.Start) - covered(s, children[s.ID])
		out[s.Layer] += self.Seconds()
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if a.Before(b) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range iv {
		if i == 0 || v[0].After(curB) {
			total += curB.Sub(curA)
			curA, curB = v[0], v[1]
			continue
		}
		if v[1].After(curB) {
			curB = v[1]
		}
	}
	return total + curB.Sub(curA)
}

// count is the number of recorded spans.
func (rc *recorder) count() int {
	if rc == nil {
		return 0
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.spans)
}

// writeJSONL writes one span per line, times in microseconds since the
// run started.
func (rc *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rc.mu.Lock()
	for _, s := range rc.spans {
		line := struct {
			span
			StartUS float64 `json:"start_us"`
			EndUS   float64 `json:"end_us"`
		}{s, us(s.Start.Sub(rc.t0)), us(s.End.Sub(rc.t0))}
		if err := enc.Encode(line); err != nil {
			rc.mu.Unlock()
			f.Close()
			return err
		}
	}
	rc.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishTrace folds the span tree's self times, per traced operation,
// into the self.* metrics of the layers it covers and records the span
// count. Layers whose self time the workload derives another way
// (serving, see serve.go) are already set and are left alone.
func (r *run) finishTrace() {
	for layer, s := range r.rec.selfTimes() {
		if layer == "bench" {
			continue
		}
		k := "self." + layer + "_s"
		if _, ok := r.metrics[k]; !ok && r.tracedOps > 0 {
			r.metrics[k] = s / float64(r.tracedOps)
		}
	}
	r.metrics["trace.spans"] = float64(r.rec.count())
}

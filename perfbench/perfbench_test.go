package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"
	"time"

	"repro/internal/knnjoin"
	"repro/internal/serve"
)

// TestTinyWorkloads runs every workload end to end at the tiny size, both
// untraced and traced, and checks the result line's shape: correct, no
// failures, every end-to-end metric present and non-zero, every per-layer
// metric present.
func TestTinyWorkloads(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			res, _, err := execute(w.name, 1, 1, trace, "tiny", out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			for _, d := range metricDefs {
				m, ok := res.Metrics[d.name]
				switch {
				case d.layer != (trace == 1):
					if ok {
						t.Errorf("%s trace=%d: unexpected metric %s", w.name, trace, d.name)
					}
				case !ok:
					t.Errorf("%s trace=%d: missing metric %s", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: metric %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case !d.layer && (m.Value <= 0 || math.IsNaN(m.Value)):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
	// A second run of the same inputs compares its work counts with the
	// first run's and must agree.
	res, _, err := execute("knn-join", 1, 1, 0, "tiny", out)
	if err != nil || !res.Correct {
		t.Fatalf("repeated knn-join run: correct=%v err=%v", res != nil && res.Correct, err)
	}
}

func failedChecks(r *run) int {
	n := 0
	for _, c := range r.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

func TestTrainCheckCatchesWrongLabels(t *testing.T) {
	r := &run{sz: sizeSets["tiny"]}
	truth := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	if _, ok := r.checkFit(0, truth, []int32{5, 5, 5, 3, 3, 3, 4, 4, 4}); !ok {
		t.Fatal("correct labels (renamed clusters) failed the ARI check")
	}
	if _, ok := r.checkFit(0, truth, []int32{0, 1, 2, 0, 1, 2, 0, 1, 2}); ok {
		t.Fatal("scrambled labels passed the ARI check")
	}
	if failedChecks(r) != 1 {
		t.Fatalf("want exactly one failed check, have %+v", r.checks)
	}
}

func TestKNNCheckCatchesOneChangedNeighbor(t *testing.T) {
	exact := [][]knnjoin.Neighbor{{{ID: 4, D2: 1}, {ID: 9, D2: 2}}, {{ID: 1, D2: 0.5}, {ID: 2, D2: 0.5}}}
	got := make([][]knnjoin.Neighbor, 5)
	sample := []int{3, 0}
	got[3] = append([]knnjoin.Neighbor(nil), exact[0]...)
	got[0] = append([]knnjoin.Neighbor(nil), exact[1]...)
	if n := mismatches(got, exact, sample); n != 0 {
		t.Fatalf("identical answers: %d mismatches", n)
	}
	got[0][1].D2 = math.Nextafter(0.5, 1) // one ulp off
	if n := mismatches(got, exact, sample); n != 1 {
		t.Fatalf("one-ulp distance change: %d mismatches, want 1", n)
	}
	got[0] = exact[1][:1] // a neighbour missing
	got[3][0].ID = 5      // a neighbour swapped
	if n := mismatches(got, exact, sample); n != 2 {
		t.Fatalf("two corrupted answers: %d mismatches, want 2", n)
	}
}

func TestServeChecksCatchWrongAnswers(t *testing.T) {
	want := []serve.Assignment{
		{Cluster: 1, Nearest: 10, Dist: 0.5, Dist2: 0.25, PeakDist: 2},
		{Cluster: 2, Nearest: 11, Dist: 1, Dist2: 1, PeakDist: 3, Halo: true},
	}
	errs := []error{nil, nil}
	got := []serve.Assignment{want[0], want[1]}
	got[0].Dist2, got[1].Dist2 = 0, 0 // not on the wire
	if n := countDiffs(got, want, errs); n != 0 {
		t.Fatalf("identical answers: %d differences", n)
	}
	got[1].Halo = false
	if n := countDiffs(got, want, errs); n != 1 {
		t.Fatalf("flipped halo flag: %d differences, want 1", n)
	}
	if n := countDiffs(got[:1], want[:1], []error{errors.New("no finite distance")}); n != 1 {
		t.Fatalf("direct call failed: %d differences, want 1", n)
	}
	exact := []serve.Assignment{{Cluster: 1}, {Cluster: 3}}
	if a := labelAgree(got, exact, errs); a != 0.5 {
		t.Fatalf("label_agree with one wrong cluster = %v, want 0.5", a)
	}
}

func TestIngestChecksCatchLostOrDoubledPoints(t *testing.T) {
	if !ingestIDsOK([]int32{102, 100, 101}, 100, 103) {
		t.Fatal("complete distinct IDs rejected")
	}
	if ingestIDsOK([]int32{100, 101, 101}, 100, 103) {
		t.Fatal("doubled ID accepted")
	}
	if ingestIDsOK([]int32{100, 102}, 100, 103) {
		t.Fatal("lost ID accepted")
	}
	if !sameIDSet([]int32{7, 5, 6}, []int32{5, 6, 7}) {
		t.Fatal("equal ID sets rejected")
	}
	if sameIDSet([]int32{5, 6, 6}, []int32{5, 6, 7}) {
		t.Fatal("compacted rows with a doubled ID accepted")
	}
}

func TestCountGateCatchesChangedWork(t *testing.T) {
	out := t.TempDir()
	first, err := newRun("knn-join", 7, time.Second, false, "tiny", sizeSets["tiny"], out)
	if err != nil {
		t.Fatal(err)
	}
	first.count("knn-join.set0.candidates", 1000)
	first.gateCounts()
	again, err := newRun("knn-join", 7, time.Second, false, "tiny", sizeSets["tiny"], out)
	if err != nil {
		t.Fatal(err)
	}
	again.count("knn-join.set0.candidates", 1000)
	again.gateCounts()
	if failedChecks(again) != 0 {
		t.Fatalf("equal counts failed the gate: %+v", again.checks)
	}
	changed, err := newRun("knn-join", 7, time.Second, false, "tiny", sizeSets["tiny"], out)
	if err != nil {
		t.Fatal(err)
	}
	changed.count("knn-join.set0.candidates", 1001)
	changed.gateCounts()
	if failedChecks(changed) != 1 {
		t.Fatalf("changed count passed the gate: %+v", changed.checks)
	}
	changed.count("knn-join.set0.candidates", 1002) // differs within the run too
	if failedChecks(changed) != 2 {
		t.Fatalf("count changing within a run passed: %+v", changed.checks)
	}
}

// TestBenchmarkJSONMatchesMetricTable keeps BENCHMARK.json and the
// benchmark's own tables in step.
func TestBenchmarkJSONMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
		}
	}
	var e2e, layer []def
	for _, d := range metricDefs {
		x := def{d.name, d.unit, d.better}
		if d.layer {
			layer = append(layer, x)
		} else {
			e2e = append(e2e, x)
		}
	}
	for _, c := range []struct {
		what      string
		got, want []def
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metricDefs %d", c.what, len(c.got), len(c.want))
		}
		for i := range c.got {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, metricDefs %+v", c.what, i, c.got[i], c.want[i])
			}
		}
	}
}

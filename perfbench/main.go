// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the program's public packages, checks every
// answer it gets back, and prints the end-to-end metrics (or, with
// -trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload train --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload serve-ingest --seed 3 --seconds 30 --trace 1
//
// The workloads, the metrics and how each layer metric maps onto an
// end-to-end one are documented in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"train", runTrain},
	{"knn-join", runKNNJoin},
	{"serve-ingest", runServeIngest},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: train, knn-join or serve-ingest")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 30, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics; 0 = end-to-end metrics")
		size    = flag.String("size", "full", "input sizes: full, or tiny for a seconds-long smoke run")
		out     = flag.String("out", ".bench_out", "directory for reports, traces, work-count records and scratch files")
	)
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *trace, *size, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, trace int, size, out string) error {
	res, summary, err := execute(name, seed, seconds, trace, size, out)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(summary))
	fmt.Println(string(line))
	return nil
}

// execute runs one workload and returns its result and the summary line
// (environment and failed checks) printed before it.
func execute(name string, seed int64, seconds, trace int, size, out string) (*result, []byte, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, nil, fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return nil, nil, fmt.Errorf("--trace must be 0 or 1")
	}
	sz, ok := sizeSets[size]
	if !ok {
		return nil, nil, fmt.Errorf("unknown --size %q", size)
	}
	r, err := newRun(w.name, seed, time.Duration(seconds)*time.Second, trace == 1, size, sz, out)
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(r.dir) //nolint:errcheck // scratch only
	if err := w.run(r); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return r.finish()
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish runs the cross-run determinism gate, writes the full report and
// the trace under the output directory, and assembles the result and
// summary lines.
func (r *run) finish() (*result, []byte, error) {
	r.gateCounts()
	r.sampleHeap()
	r.metrics["live_heap_mb"] = r.heapMB
	r.metrics["peak_rss_mb"] = peakRSSMB()
	if r.traced {
		r.finishTrace()
	}
	res := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, c := range r.checks {
		if !c.OK {
			res.Correct = false
		}
	}
	if r.attempted < 1 {
		return nil, nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range metricDefs {
		if d.layer != r.traced {
			continue
		}
		v, ok := r.metrics[d.name]
		if !ok && !d.layer {
			return nil, nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}

	report := map[string]any{
		"env":        r.env,
		"result":     res,
		"checks":     r.checks,
		"counts":     r.counts,
		"info":       r.info,
		"all_values": r.metrics,
	}
	base := fmt.Sprintf("%s-%s-seed%d-trace%d", r.workload, r.size, r.seed, b2i(r.traced))
	if err := writeJSON(filepath.Join(r.out, "reports", base+".json"), report); err != nil {
		return nil, nil, err
	}
	if r.traced {
		if err := r.rec.writeJSONL(filepath.Join(r.out, "traces", base+".jsonl")); err != nil {
			return nil, nil, err
		}
	}
	var failedChecks []string
	for _, c := range r.checks {
		if !c.OK {
			failedChecks = append(failedChecks, c.Name+": "+c.Detail)
		}
	}
	sort.Strings(failedChecks)
	for _, c := range failedChecks {
		logf("check failed: %s", c)
	}
	summary, err := json.Marshal(map[string]any{"env": r.env, "failed_checks": failedChecks, "counts": r.counts})
	return res, summary, err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// logf reports progress on standard error, keeping standard output for
// the summary and result lines.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+strings.TrimSuffix(format, "\n")+"\n", args...)
}

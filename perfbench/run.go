package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sizes fixes every input size and traffic setting of the workloads. The
// full set is what BENCHMARK.json runs; tiny shrinks everything so the
// benchmark's own tests exercise each workload end to end in seconds.
type sizes struct {
	// train: BigCross points per data set, and data sets per cycle (each
	// run fits every data set of the cycle at least once; see train.go).
	trainN, trainSets int
	// trainARIFloor is the lowest ARI a fit may score before the answer
	// counts as wrong.
	trainARIFloor float64
	// knn-join: base and query points per pair, pairs per cycle.
	knnN, knnQ, knnSets int
	// knnCheck is the size of the seeded query sample re-joined exactly.
	knnCheck int
	// serve-ingest: model rows, blob clusters, and queries per /assign
	// request. The model is small enough that the rows a query scans stay
	// in a core's own cache: on the shared 2-CPU machine the benchmark was
	// calibrated on, a 300,000-row model (19 MB of coordinates, a tenth of
	// it scanned per query) spread about twice as much between windows as
	// a 20,000-row one, as neighbours' memory traffic came and went.
	// Queries travel 16 to a request, so HTTP round trips and goroutine
	// wake-ups, which were as unsteady, are a small part of a request.
	serveN, serveK, readPoints int
	// serveModels is the number of models, each from its own seed, a run
	// serves (see runServeIngest).
	serveModels int
	// ingestRate is the open-loop arrival rate in requests/s: about a
	// sixth of the closed-loop capacity (550-800 requests/s on the shared
	// calibration machine), so latency tracks service time rather than
	// queueing even when the machine is slow; every ingestEvery-th
	// request is a write.
	ingestRate  float64
	ingestEvery int
	// compactEvery triggers Store.Compact after this many ingests one
	// store acked.
	compactEvery int
	// verify is the number of queries whose HTTP answers are checked
	// against direct engine calls after the measured window; probes is
	// the number of queries whose layer calls the traced run times.
	verify, probes int
	// setups is how many times set-up is repeated (its median is setup_s).
	setups int
	// warmup is the untimed closed-loop window before measuring.
	warmup time.Duration
}

var sizeSets = map[string]sizes{
	"full": {
		trainN: 12000, trainSets: 5, trainARIFloor: 0.6,
		knnN: 100000, knnQ: 10000, knnSets: 5, knnCheck: 256,
		serveN: 20000, serveK: 16, readPoints: 16, serveModels: 16,
		ingestRate: 100, ingestEvery: 10, compactEvery: 6,
		verify: 400, probes: 1000,
		setups: 3, warmup: time.Second,
	},
	"tiny": {
		trainN: 1500, trainSets: 2, trainARIFloor: 0.6,
		knnN: 3000, knnQ: 300, knnSets: 2, knnCheck: 32,
		serveN: 4000, serveK: 8, readPoints: 4, serveModels: 2,
		ingestRate: 200, ingestEvery: 5, compactEvery: 3,
		verify: 40, probes: 40,
		setups: 2, warmup: 200 * time.Millisecond,
	},
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	size     string
	sz       sizes
	out      string // output root (reports, traces, work-count records)
	dir      string // this run's scratch directory, removed at exit

	rec     *recorder // nil on untraced runs
	metrics map[string]float64
	checks  []check
	counts  map[string]int64
	info    map[string]any
	env     map[string]any

	attempted, failed int64
	// tracedOps is the number of operations the span tree covers, so
	// self times read per operation.
	tracedOps int
	// heapMB is the largest live heap sampled after a forced GC.
	heapMB float64
}

// sampleHeap records the live heap after a full collection: the memory
// the program's state holds at this point of the run.
func (r *run) sampleHeap() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.heapMB = math.Max(r.heapMB, float64(ms.HeapAlloc)/(1<<20))
}

// opTimes reports the per-operation wall times (in ms) of a batch
// workload.
func (r *run) opTimes(walls []float64) {
	r.metrics["op_p50_ms"] = median(walls)
	r.metrics["op_p99_ms"], r.info["op_tail_quantile"] = tailQuantile(walls)
	r.info["op_ms"] = walls
}

// check is one output check; a failed check makes the run incorrect.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func newRun(workload string, seed int64, window time.Duration, traced bool, size string, sz sizes, out string) (*run, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, err
	}
	r := &run{
		workload: workload, seed: seed, window: window, traced: traced,
		size: size, sz: sz, out: out, dir: dir,
		metrics: map[string]float64{},
		counts:  map[string]int64{},
		info:    map[string]any{},
	}
	if traced {
		r.rec = newRecorder()
	}
	r.env = environment(workload, seed, window, traced, size)
	return r, nil
}

// check records an output check.
func (r *run) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.checks = append(r.checks, c)
}

// count records a deterministic work count. The same name recorded twice
// in one run must carry the same value; across runs, gateCounts compares
// against the first run with the same workload, size, seed and trace mode.
func (r *run) count(name string, v int64) {
	if old, ok := r.counts[name]; ok && old != v {
		r.check("deterministic."+name, false, "%d in one repetition, %d in another", old, v)
		return
	}
	r.counts[name] = v
}

// gateCounts compares this run's work counts with the ones recorded by the
// first run of the same inputs and the same source tree in this checkout,
// and records them when this is the first such run. Counts do not depend
// on the machine, so any difference is a nondeterminism bug in the
// program.
func (r *run) gateCounts() {
	digest, _ := r.env["source_sha256"].(string)
	path := filepath.Join(r.out, "counts", fmt.Sprintf("%s-%s-seed%d-trace%d-%.12s.json", r.workload, r.size, r.seed, b2i(r.traced), digest))
	data, err := os.ReadFile(path)
	if err != nil {
		if werr := writeJSON(path, r.counts); werr != nil {
			logf("cannot record work counts: %v", werr)
		}
		r.info["counts_gate"] = "recorded"
		return
	}
	var prev map[string]int64
	if err := json.Unmarshal(data, &prev); err != nil {
		r.check("deterministic.record", false, "unreadable %s: %v", path, err)
		return
	}
	r.info["counts_gate"] = "compared"
	names := map[string]bool{}
	for k := range prev {
		names[k] = true
	}
	for k := range r.counts {
		names[k] = true
	}
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		was, had := prev[k]
		now, has := r.counts[k]
		r.check("deterministic."+k, had == has && was == now,
			"this run %d (present %v), first run %d (present %v)", now, has, was, had)
	}
}

// op counts one attempted user operation and whether it failed.
func (r *run) op(failed bool) {
	r.attempted++
	if failed {
		r.failed++
	}
}

// environment names the machine, toolchain and code a result came from.
func environment(workload string, seed int64, window time.Duration, traced bool, size string) map[string]any {
	host, _ := os.Hostname()
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"size":          size,
		"seconds":       window.Seconds(),
		"traced":        traced,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu_model":     cpuModel(),
		"host":          host,
		"commit":        commit(),
		"source_sha256": sourceDigest("."),
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out git commit, or "none" when the working
// directory is not the top of a git work tree (git is not allowed to look
// above it); sourceDigest identifies the measured code either way.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "none"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root (the
// benchmark's own build and output directories excluded), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00") //nolint:errcheck // hash writes cannot fail
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB, or 0
// where /proc does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// ---- statistics ----

// quantile returns the nearest-rank q-quantile of xs, or 0 when xs is
// empty (a phase that did not run).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median returns the median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timed returns how long f took.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// tailQuantile picks the highest of the 0.99/0.95/0.9 quantiles that has
// at least ten samples above it (the maximum when none has), and says
// which one it used.
func tailQuantile(xs []float64) (float64, float64) {
	for _, q := range []float64{0.99, 0.95, 0.9} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q), q
		}
	}
	return quantile(xs, 1), 1
}

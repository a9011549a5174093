package rpcmr

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/obs"
)

// stripWireCounters drops the shuffle.wire.* counters before cross-engine
// comparison: they measure transport bytes, which only the distributed
// engine has. The logical shuffle.bytes counter stays in the comparison —
// the transport must not change what the paper's metric reports.
func stripWireCounters(c map[string]int64) {
	for k := range c {
		if strings.HasPrefix(k, "shuffle.wire.") {
			delete(c, k)
		}
	}
}

// TestRunnerConformance drives the same LSH-DDP density job through both
// mapreduce.Runner implementations — the in-process Driver and a real
// 3-worker rpcmr cluster — and asserts they are observationally identical:
// same output, same counter totals, and the same trace span geometry. Task
// counts are pinned because the two engines default them differently (the
// local engine defaults maps to its parallelism, the master to 2× workers);
// with identical contiguous splits every per-task counter is deterministic.
func TestRunnerConformance(t *testing.T) {
	ds := dataset.Blobs("conformance", 600, 2, 4, 100, 3, 11)
	input := core.InputPairs(ds)

	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", 4.0)
	conf.SetInt("ddp.dim", ds.Dim())
	conf.SetInt("ddp.lsh.m", 4)
	conf.SetInt("ddp.lsh.pi", 2)
	conf.SetFloat("ddp.lsh.w", 12)
	conf.SetInt64("ddp.seed", 7)

	const nMaps, nReduces = 4, 3
	makeJob := func() *mapreduce.Job {
		j := core.JobFactories()[core.JobLSHRho](conf.Clone())
		j.NumMaps = nMaps
		j.NumReduces = nReduces
		return j
	}

	master, _ := startCluster(t, 3)
	runners := []struct {
		name   string
		runner mapreduce.Runner
	}{
		{"local", mapreduce.NewDriver(&mapreduce.LocalEngine{Parallelism: 3})},
		{"rpcmr", master},
	}

	type observed struct {
		output   []mapreduce.Pair
		counters map[string]int64
		spans    map[obs.Phase]int
		bytes    int64
	}
	results := make(map[string]observed)

	for _, rc := range runners {
		t.Run(rc.name, func(t *testing.T) {
			res, err := rc.runner.Run(context.Background(), makeJob(), input)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("Run returned no trace")
			}
			jobs := rc.runner.Jobs()
			if len(jobs) != 1 {
				t.Fatalf("Jobs() = %d entries, want 1", len(jobs))
			}
			traces := rc.runner.Traces()
			if len(traces) != 1 {
				t.Fatalf("Traces() = %d entries, want 1", len(traces))
			}

			// PhaseFetch spans are the distributed engine's wire-level
			// observation (one per remote shuffle fetch) — engine-specific
			// by design, so they sit outside the geometry invariant. Their
			// Bytes must still be real: positive, and consistent with the
			// job's wire counters.
			spans := map[obs.Phase]int{}
			var shuffleBytes, fetchWireBytes int64
			for _, s := range res.Trace.Spans {
				if s.Phase == obs.PhaseFetch {
					if s.Bytes <= 0 {
						t.Fatalf("fetch span with %d wire bytes", s.Bytes)
					}
					fetchWireBytes += s.Bytes
					continue
				}
				spans[s.Phase]++
				if s.Phase == obs.PhaseShuffle {
					shuffleBytes += s.Bytes
				}
			}
			if ctr := rc.runner.TotalCounter(mapreduce.CtrShuffleWireBytesCompressed); fetchWireBytes != ctr {
				t.Fatalf("fetch span bytes = %d, %s counter = %d",
					fetchWireBytes, mapreduce.CtrShuffleWireBytesCompressed, ctr)
			}
			// Geometry: one map, sort, and shuffle span per map task (the
			// job has no combiner), one reduce span per reduce task.
			want := map[obs.Phase]int{
				obs.PhaseMap:     nMaps,
				obs.PhaseSort:    nMaps,
				obs.PhaseShuffle: nMaps,
				obs.PhaseReduce:  nReduces,
			}
			if !reflect.DeepEqual(spans, want) {
				t.Fatalf("span counts = %v, want %v", spans, want)
			}

			// Acceptance invariant: shuffle spans account exactly the bytes
			// the shuffle counter measures.
			if ctr := rc.runner.TotalCounter(mapreduce.CtrShuffleBytes); shuffleBytes != ctr {
				t.Fatalf("shuffle span bytes = %d, %s counter = %d",
					shuffleBytes, mapreduce.CtrShuffleBytes, ctr)
			}

			out := append([]mapreduce.Pair(nil), res.Output...)
			sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
			results[rc.name] = observed{
				output:   out,
				counters: res.Counters.Snapshot(),
				spans:    spans,
				bytes:    shuffleBytes,
			}
		})
	}

	local, rpc := results["local"], results["rpcmr"]
	if local.output == nil || rpc.output == nil {
		t.Fatal("one of the runners did not record results")
	}
	stripWireCounters(local.counters)
	stripWireCounters(rpc.counters)
	if !reflect.DeepEqual(local.counters, rpc.counters) {
		t.Errorf("counter snapshots differ:\n local: %v\n rpcmr: %v", local.counters, rpc.counters)
	}
	if !reflect.DeepEqual(local.spans, rpc.spans) {
		t.Errorf("span counts differ: local %v, rpcmr %v", local.spans, rpc.spans)
	}
	if local.bytes != rpc.bytes {
		t.Errorf("shuffle span bytes differ: local %d, rpcmr %d", local.bytes, rpc.bytes)
	}
	if len(local.output) != len(rpc.output) {
		t.Fatalf("output sizes differ: local %d, rpcmr %d", len(local.output), len(rpc.output))
	}
	for i := range local.output {
		if local.output[i].Key != rpc.output[i].Key {
			t.Fatalf("output key %d differs: %q vs %q", i, local.output[i].Key, rpc.output[i].Key)
		}
	}
}

// TestConformanceParallelKernels repeats the density job with the
// intra-partition parallelism knobs set in Conf. The knobs ride the same
// (name, conf) job transport as every other parameter, so remote workers
// must rebuild them and take the parallel path: both engines must count the
// same dp.parallel.groups, and byte-identical output proves the parallel
// tile merge reproduces the serial kernel on the distributed engine too.
func TestConformanceParallelKernels(t *testing.T) {
	ds := dataset.Blobs("conformance-par", 600, 2, 4, 100, 3, 11)
	input := core.InputPairs(ds)

	conf := mapreduce.Conf{}
	conf.SetFloat("ddp.dc", 4.0)
	conf.SetInt("ddp.dim", ds.Dim())
	conf.SetInt("ddp.lsh.m", 4)
	conf.SetInt("ddp.lsh.pi", 2)
	conf.SetFloat("ddp.lsh.w", 12)
	conf.SetInt64("ddp.seed", 7)
	conf.SetInt("ddp.parallel.threshold", 32)
	conf.SetInt("ddp.parallel.workers", 3)

	makeJob := func() *mapreduce.Job {
		j := core.JobFactories()[core.JobLSHRho](conf.Clone())
		j.NumMaps = 4
		j.NumReduces = 3
		return j
	}

	master, _ := startCluster(t, 3)
	runners := []struct {
		name   string
		runner mapreduce.Runner
	}{
		{"local", mapreduce.NewDriver(&mapreduce.LocalEngine{Parallelism: 3})},
		{"rpcmr", master},
	}

	type observed struct {
		output   []mapreduce.Pair
		counters map[string]int64
	}
	results := make(map[string]observed)
	for _, rc := range runners {
		res, err := rc.runner.Run(context.Background(), makeJob(), input)
		if err != nil {
			t.Fatalf("%s: %v", rc.name, err)
		}
		out := append([]mapreduce.Pair(nil), res.Output...)
		sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
		results[rc.name] = observed{output: out, counters: res.Counters.Snapshot()}
	}

	local, rpc := results["local"], results["rpcmr"]
	if local.counters[mapreduce.CtrParallelGroups] == 0 {
		t.Fatal("parallel threshold engaged no reducer groups")
	}
	stripWireCounters(local.counters)
	stripWireCounters(rpc.counters)
	if !reflect.DeepEqual(local.counters, rpc.counters) {
		t.Errorf("counter snapshots differ:\n local: %v\n rpcmr: %v", local.counters, rpc.counters)
	}
	if len(local.output) != len(rpc.output) {
		t.Fatalf("output sizes differ: local %d, rpcmr %d", len(local.output), len(rpc.output))
	}
	for i := range local.output {
		if local.output[i].Key != rpc.output[i].Key || !reflect.DeepEqual(local.output[i].Value, rpc.output[i].Value) {
			t.Fatalf("output record %d differs between engines", i)
		}
	}
}

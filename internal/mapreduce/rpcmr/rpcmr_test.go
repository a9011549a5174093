package rpcmr

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dp"
	"repro/internal/mapreduce"
)

// wordcount is the canonical framework smoke-test job.
func wordcountJob(conf mapreduce.Conf) *mapreduce.Job {
	return &mapreduce.Job{
		Name: "wordcount",
		Conf: conf,
		Map: func(_ *mapreduce.TaskContext, _ string, value []byte, out mapreduce.Emitter) error {
			for _, w := range strings.Fields(string(value)) {
				out.Emit(w, []byte("1"))
			}
			return nil
		},
		Combine: sumReduce,
		Reduce:  sumReduce,
	}
}

func sumReduce(_ *mapreduce.TaskContext, key string, values [][]byte, out mapreduce.Emitter) error {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(string(v))
		if err != nil {
			return err
		}
		total += n
	}
	out.Emit(key, []byte(strconv.Itoa(total)))
	return nil
}

func init() {
	RegisterJob("wordcount", wordcountJob)
	RegisterJob("fail-always", func(conf mapreduce.Conf) *mapreduce.Job {
		return &mapreduce.Job{
			Name: "fail-always",
			Map: func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error {
				return fmt.Errorf("injected map failure")
			},
			Reduce: sumReduce,
		}
	})
	RegisterJobs(core.JobFactories())
}

// startCluster boots a master and n workers on loopback.
func startCluster(t testing.TB, n int) (*Master, []*Worker) {
	t.Helper()
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	var ws []*Worker
	for i := 0; i < n; i++ {
		w, err := StartWorker(m.Addr(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	t.Cleanup(func() {
		for _, w := range ws {
			select {
			case <-w.quit:
			default:
				w.Close()
			}
		}
	})
	if err := m.WaitWorkers(n, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return m, ws
}

func TestClusterWordcount(t *testing.T) {
	m, _ := startCluster(t, 3)
	input := []mapreduce.Pair{
		{Value: []byte("the quick brown fox")},
		{Value: []byte("the lazy dog")},
		{Value: []byte("the fox")},
	}
	res, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, p := range res.Output {
		got[p.Key] = string(p.Value)
	}
	want := map[string]string{"the": "3", "fox": "2", "quick": "1", "brown": "1", "lazy": "1", "dog": "1"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("count[%q] = %q, want %q", k, got[k], v)
		}
	}
	if res.Counters.Get(mapreduce.CtrMapInputRecords) != 3 {
		t.Fatalf("map input records = %d, want 3", res.Counters.Get(mapreduce.CtrMapInputRecords))
	}
	// Combiner collapsed duplicate words within map tasks, so shuffle
	// records is between 6 (full dedup) and 9 (none).
	sr := res.Counters.Get(mapreduce.CtrShuffleRecords)
	if sr < 6 || sr > 9 {
		t.Fatalf("shuffle records = %d, want 6..9", sr)
	}
}

func TestClusterMatchesLocalEngine(t *testing.T) {
	m, _ := startCluster(t, 2)
	input := make([]mapreduce.Pair, 0, 200)
	for i := 0; i < 200; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("w%d w%d", i%7, i%13))})
	}
	distRes, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	local := &mapreduce.LocalEngine{Parallelism: 2}
	locRes, err := local.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatal(err)
	}
	toMap := func(ps []mapreduce.Pair) map[string]string {
		out := map[string]string{}
		for _, p := range ps {
			out[p.Key] = string(p.Value)
		}
		return out
	}
	d, l := toMap(distRes.Output), toMap(locRes.Output)
	if len(d) != len(l) {
		t.Fatalf("distributed %d keys, local %d", len(d), len(l))
	}
	for k, v := range l {
		if d[k] != v {
			t.Fatalf("key %q: distributed %q, local %q", k, d[k], v)
		}
	}
}

func TestClusterTaskErrorFailsJob(t *testing.T) {
	m, _ := startCluster(t, 2)
	_, err := m.Run(context.Background(), &mapreduce.Job{Name: "fail-always", Map: func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error { return nil }, Reduce: sumReduce},
		[]mapreduce.Pair{{Value: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "injected map failure") {
		t.Fatalf("want injected failure error, got %v", err)
	}
}

func TestClusterWorkerFailureRecovery(t *testing.T) {
	m, ws := startCluster(t, 3)
	m.LeaseTimeout = 500 * time.Millisecond

	// Run one job to give every worker map outputs, then kill a worker and
	// run again: reduces fetching from the dead worker must trigger map
	// re-execution rather than failing the job.
	input := make([]mapreduce.Pair, 0, 300)
	for i := 0; i < 300; i++ {
		input = append(input, mapreduce.Pair{Value: []byte(fmt.Sprintf("a%d b%d c%d", i%5, i%11, i%17))})
	}
	if _, err := m.Run(context.Background(), wordcountJob(nil), input); err != nil {
		t.Fatal(err)
	}
	ws[0].Close()

	res, err := m.Run(context.Background(), wordcountJob(nil), input)
	if err != nil {
		t.Fatalf("job after worker death: %v", err)
	}
	if len(res.Output) == 0 {
		t.Fatal("empty output after recovery")
	}
}

func TestClusterRunsLSHDDP(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed LSH-DDP in -short mode")
	}
	m, _ := startCluster(t, 3)
	ds := dataset.Blobs("rpc-lsh", 600, 3, 4, 100, 3, 15)
	dc := dp.CutoffByPercentile(ds, 0.02, 1)

	distRes, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Engine: m, Dc: dc, Seed: 4},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	localRes, err := core.RunLSHDDP(context.Background(), ds, core.LSHConfig{
		Config:   core.Config{Engine: &mapreduce.LocalEngine{Parallelism: 3}, Dc: dc, Seed: 4},
		Accuracy: 0.95, M: 5, Pi: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The distributed engine must produce byte-identical science: same ρ̂,
	// δ̂, upslope for every point.
	for i := range localRes.Rho {
		if distRes.Rho[i] != localRes.Rho[i] {
			t.Fatalf("rho[%d]: distributed %v, local %v", i, distRes.Rho[i], localRes.Rho[i])
		}
		if distRes.Delta[i] != localRes.Delta[i] {
			t.Fatalf("delta[%d]: distributed %v, local %v", i, distRes.Delta[i], localRes.Delta[i])
		}
		if distRes.Upslope[i] != localRes.Upslope[i] {
			t.Fatalf("upslope[%d]: distributed %d, local %d", i, distRes.Upslope[i], localRes.Upslope[i])
		}
	}
	if distRes.Stats.DistanceComputations != localRes.Stats.DistanceComputations {
		t.Fatalf("distance count: distributed %d, local %d",
			distRes.Stats.DistanceComputations, localRes.Stats.DistanceComputations)
	}
}

func TestMasterRejectsWithoutWorkers(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Run(context.Background(), wordcountJob(nil), nil); err == nil {
		t.Fatal("want error with zero workers")
	}
}

func TestUnregisteredJobFailsCleanly(t *testing.T) {
	m, _ := startCluster(t, 1)
	job := &mapreduce.Job{
		Name:   "never-registered",
		Map:    func(_ *mapreduce.TaskContext, _ string, _ []byte, _ mapreduce.Emitter) error { return nil },
		Reduce: sumReduce,
	}
	_, err := m.Run(context.Background(), job, []mapreduce.Pair{{Value: []byte("x")}})
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("want not-registered error, got %v", err)
	}
}

// TestRegisterRequiresBothAddrs: map outputs leave a worker only through
// its shuffle listener, and cleanup reaches it only through its RPC
// address, so a sign-on missing either is refused.
func TestRegisterRequiresBothAddrs(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r := &masterRPC{m: m}
	for _, args := range []RegisterArgs{
		{Addr: "127.0.0.1:1"},
		{ShuffleAddr: "127.0.0.1:2"},
		{},
	} {
		var reply RegisterReply
		if err := r.Register(&args, &reply); err == nil {
			t.Errorf("Register(%+v) accepted", args)
		}
	}
	if n := m.WorkerCount(); n != 0 {
		t.Fatalf("%d workers registered from incomplete sign-ons", n)
	}
	var reply RegisterReply
	if err := r.Register(&RegisterArgs{Addr: "127.0.0.1:1", ShuffleAddr: "127.0.0.1:2"}, &reply); err != nil {
		t.Fatal(err)
	}
	if m.WorkerCount() != 1 || reply.WorkerID == 0 {
		t.Fatalf("complete sign-on: %d workers, id %d", m.WorkerCount(), reply.WorkerID)
	}
}

// TestCompleteMapFromUnknownWorker: a map completion names the worker
// holding the output; from an unregistered worker there is no location
// to fetch from, so the map must stay undone rather than done-and-empty.
func TestCompleteMapFromUnknownWorker(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	r := &masterRPC{m: m}
	var reg RegisterReply
	if err := r.Register(&RegisterArgs{Addr: "127.0.0.1:1", ShuffleAddr: "127.0.0.1:2"}, &reg); err != nil {
		t.Fatal(err)
	}
	run := &jobRun{
		id:         1,
		maps:       []taskSlot{{status: taskRunning, worker: reg.WorkerID, started: time.Now()}},
		mapAddr:    make([]string, 1),
		mapShuffle: make([]string, 1),
		reduces:    make([]taskSlot, 1),
		outputs:    make([][]mapreduce.Pair, 1),
		counters:   mapreduce.NewCounters(),
	}
	m.mu.Lock()
	m.cur = run
	m.mu.Unlock()

	unknown := reg.WorkerID + 1
	if err := r.CompleteTask(&CompleteArgs{WorkerID: unknown, JobID: 1, Kind: TaskMap}, &CompleteReply{}); err == nil {
		t.Error("map completion from an unknown worker accepted")
	}
	m.mu.Lock()
	status, addr := run.maps[0].status, run.mapShuffle[0]
	m.mu.Unlock()
	if status == taskDone || addr != "" {
		t.Fatalf("unknown worker marked the map done (status %v, shuffle addr %q)", status, addr)
	}

	if err := r.CompleteTask(&CompleteArgs{WorkerID: reg.WorkerID, JobID: 1, Kind: TaskMap}, &CompleteReply{}); err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if run.maps[0].status != taskDone || run.mapAddr[0] != "127.0.0.1:1" || run.mapShuffle[0] != "127.0.0.1:2" {
		t.Fatalf("registered worker's completion: status %v, location %q/%q",
			run.maps[0].status, run.mapAddr[0], run.mapShuffle[0])
	}
}

// TestFetchEmptyShuffleAddrFailsMap: a remote map location without a
// shuffle address is reported as a failed map at once, without dialling
// the holder's RPC address or anything else.
func TestFetchEmptyShuffleAddrFailsMap(t *testing.T) {
	_, ws := startCluster(t, 1)
	holder, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	task := &GetTaskReply{
		JobID: 1,
		Conf:  mapreduce.Conf{},
		Maps:  []MapLocation{{MapTaskID: 5, WorkerAddr: holder.Addr().String()}},
	}
	done := make(chan []int, 1)
	go func() {
		_, _, failed := ws[0].fetchAll(task)
		done <- failed
	}()
	var failed []int
	select {
	case failed = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fetch of a location without a shuffle address hung")
	}
	if len(failed) != 1 || failed[0] != 5 {
		t.Fatalf("failed maps %v, want [5]", failed)
	}
	// Any dial would already sit in the listener's backlog.
	holder.(*net.TCPListener).SetDeadline(time.Now().Add(50 * time.Millisecond))
	if c, err := holder.Accept(); err == nil {
		c.Close()
		t.Fatal("fetch dialled the holder's RPC address")
	}
}

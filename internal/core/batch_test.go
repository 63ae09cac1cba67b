package core

import (
	"reflect"
	"runtime"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// TestQueryBatchParallelMatchesSerial pins QueryBatch's fan-out: every
// worker count returns byte-identical results and deterministic stats to
// workers == 1, for every probe mode, under a default plan and under a
// plan that overrides the table budget, arms early termination and
// replaces the hierarchy median rule with a fixed floor.
func TestQueryBatchParallelMatchesSerial(t *testing.T) {
	// Fan out for real even on a single-CPU host: the worker clamp is
	// GOMAXPROCS.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data := testData(t, 500, 16, 61)
	queries := testData(t, 40, 16, 62)
	for _, opts := range []Options{
		{Partitioner: PartitionRPTree, Groups: 4, Params: lshfunc.Params{M: 4, L: 3, W: 3}},
		{Partitioner: PartitionRPTree, Groups: 4, ProbeMode: ProbeMulti, Probes: 10,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
		{Partitioner: PartitionNone, ProbeMode: ProbeHierarchy,
			Params: lshfunc.Params{M: 4, L: 2, W: 1.5}},
	} {
		ix, err := Build(data, opts, xrand.New(63))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []Plan{
			{K: 7},
			{K: 7, Tables: 2, StableProbes: 2, HierMinCandidates: 20},
		} {
			serialR, serialS := ix.QueryBatch(queries, p, 1)
			clearPlanTimings(serialS)
			for _, workers := range []int{2, 4, 5, 0, 1 << 20} {
				parR, parS := ix.QueryBatch(queries, p, workers)
				if !reflect.DeepEqual(serialR, parR) {
					t.Fatalf("probe=%v plan=%+v workers=%d: results differ from serial", opts.ProbeMode, p, workers)
				}
				// Stage timings are measured wall-clock, so only the
				// deterministic work counts are compared.
				clearPlanTimings(parS)
				if !reflect.DeepEqual(serialS, parS) {
					t.Fatalf("probe=%v plan=%+v workers=%d: stats differ from serial", opts.ProbeMode, p, workers)
				}
			}
		}
	}
}

func TestQueryBatchParallelConcurrentReaders(t *testing.T) {
	// Run with -race: many goroutines querying one index concurrently.
	data := testData(t, 300, 12, 64)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 3, W: 3}}, xrand.New(65))
	if err != nil {
		t.Fatal(err)
	}
	queries := testData(t, 64, 12, 66)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			ix.QueryBatch(queries, Plan{K: 5}, 3)
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func TestQueryBatchParallelEmptyBatch(t *testing.T) {
	data := testData(t, 100, 8, 67)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(68))
	if err != nil {
		t.Fatal(err)
	}
	empty := testData(t, 1, 8, 69).Subset(nil)
	for _, workers := range []int{1, 4} {
		r, s := ix.QueryBatch(empty, Plan{K: 5}, workers)
		if len(r) != 0 || len(s) != 0 {
			t.Fatalf("workers=%d: empty batch must produce empty outputs", workers)
		}
	}
}

// TestBatchWorkersClamp pins the worker clamp: a request never starts more
// goroutines than GOMAXPROCS, and <= 0 means GOMAXPROCS.
func TestBatchWorkersClamp(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, want int }{
		{-5, procs},
		{0, procs},
		{1, 1},
		{procs, procs},
		{procs + 1, procs},
		{1 << 20, procs},
		{int(^uint(0) >> 1), procs},
	} {
		if got := batchWorkers(tc.workers); got != tc.want {
			t.Errorf("batchWorkers(%d) = %d, want %d (GOMAXPROCS %d)", tc.workers, got, tc.want, procs)
		}
	}
}

// clearPlanTimings zeroes the measured (nondeterministic) part of each stat
// so DeepEqual compares only the deterministic work counts.
func clearPlanTimings(stats []PlanStats) {
	for i := range stats {
		stats[i].Timings = StageTimings{}
	}
}

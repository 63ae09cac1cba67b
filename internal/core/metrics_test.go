package core

import (
	"testing"
	"time"

	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// TestQueryRecordsMetrics checks that the hot path populates stage
// timings and aggregates into the process-wide registry. Counters are
// compared as deltas because the default registry is shared across tests.
func TestQueryRecordsMetrics(t *testing.T) {
	data := testData(t, 400, 12, 91)
	// Indexed rows as queries: each query's home bucket holds at least
	// itself, so results are guaranteed non-empty.
	queries := data.Subset([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 4,
		Params: lshfunc.Params{M: 4, L: 3, W: 2}}, xrand.New(93))
	if err != nil {
		t.Fatal(err)
	}

	q0 := metQueries.Value()
	b0 := metBatches.Value()
	h0 := metQuerySeconds.Count()
	s0 := metStageProbe.Count()

	res, st := ix.Query(queries.Row(0), 5)
	if len(res.IDs) == 0 {
		t.Fatal("query returned nothing")
	}
	if st.Timings.Route < 0 || st.Timings.Probe <= 0 || st.Timings.Scan <= 0 || st.Timings.Rank <= 0 {
		t.Fatalf("stage timings not populated: %+v", st.Timings)
	}
	total := st.Timings.Route + st.Timings.Probe + st.Timings.Scan + st.Timings.Rank
	if total > time.Minute {
		t.Fatalf("implausible stage total %v", total)
	}

	ix.QueryBatch(queries, Plan{K: 5}, 1)
	ix.QueryBatch(queries, Plan{K: 5}, 2)

	if got := metQueries.Value() - q0; got != 21 {
		t.Errorf("queries counter moved by %d, want 21 (1 + 10 + 10)", got)
	}
	if got := metBatches.Value() - b0; got != 2 {
		t.Errorf("batches counter moved by %d, want 2", got)
	}
	if got := metQuerySeconds.Count() - h0; got != 21 {
		t.Errorf("query latency histogram grew by %d, want 21", got)
	}
	if got := metStageProbe.Count() - s0; got != 21 {
		t.Errorf("probe stage histogram grew by %d, want 21", got)
	}

	// Every batch query runs under a plan, so the hierarchy median-rule
	// path records its resolved budget and early stops like Query does.
	hix, err := Build(data, Options{Partitioner: PartitionNone, ProbeMode: ProbeHierarchy,
		Params: lshfunc.Params{M: 4, L: 3, W: 2}}, xrand.New(93))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		r0, e0 := metAdaptiveResolvedTables.Count(), metAdaptiveEarlyTerm.Value()
		_, ps := hix.QueryBatch(queries, Plan{K: 5, StableProbes: 1}, workers)
		if got := metAdaptiveResolvedTables.Count() - r0; got != int64(queries.N) {
			t.Errorf("workers=%d: resolved-tables histogram grew by %d, want %d", workers, got, queries.N)
		}
		var early int64
		for _, st := range ps {
			if st.TerminatedEarly {
				early++
			}
		}
		if got := metAdaptiveEarlyTerm.Value() - e0; got != early {
			t.Errorf("workers=%d: early-termination counter moved by %d, want %d", workers, got, early)
		}
	}
}

func TestDynamicOpsRecordMetrics(t *testing.T) {
	data := testData(t, 200, 8, 94)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(95))
	if err != nil {
		t.Fatal(err)
	}
	i0, d0, m0, c0 := metInserts.Value(), metDeletes.Value(), metDeleteMisses.Value(), metCompacts.Value()

	if _, err := ix.Insert(data.Row(0)); err != nil {
		t.Fatal(err)
	}
	if !ix.Delete(3) {
		t.Fatal("Delete(3) should succeed")
	}
	if ix.Delete(3) {
		t.Fatal("double delete should fail")
	}
	if _, err := ix.Compact(); err != nil {
		t.Fatal(err)
	}

	if got := metInserts.Value() - i0; got != 1 {
		t.Errorf("inserts moved by %d, want 1", got)
	}
	if got := metDeletes.Value() - d0; got != 1 {
		t.Errorf("deletes moved by %d, want 1", got)
	}
	if got := metDeleteMisses.Value() - m0; got != 1 {
		t.Errorf("delete misses moved by %d, want 1", got)
	}
	if got := metCompacts.Value() - c0; got != 1 {
		t.Errorf("compactions moved by %d, want 1", got)
	}
}

package core

import (
	"math"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// TestQueryDegenerateK: the public query surface must treat k < 1 as "ask
// for nothing, get nothing" — empty results, never a panic — on every
// entry point, for every probe mode.
func TestQueryDegenerateK(t *testing.T) {
	data := testData(t, 200, 16, 4)
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		opts := Options{ProbeMode: mode, Probes: 8,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}}
		ix, err := Build(data, opts, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, -1} {
			res, _ := ix.Query(data.Row(0), k)
			if len(res.IDs) != 0 || len(res.Dists) != 0 {
				t.Errorf("mode %v: Query(k=%d) returned %d results", mode, k, len(res.IDs))
			}
			if r := ix.ExactKNN(data.Row(0), k); len(r.IDs) != 0 {
				t.Errorf("mode %v: ExactKNN(k=%d) returned %d results", mode, k, len(r.IDs))
			}
			for _, workers := range []int{1, 4} {
				batch, stats := ix.QueryBatch(data, Plan{K: k}, workers)
				if len(batch) != data.N || len(stats) != data.N {
					t.Fatalf("mode %v: QueryBatch(k=%d, workers=%d) shape %d/%d, want %d", mode, k, workers, len(batch), len(stats), data.N)
				}
				for qi, r := range batch {
					if len(r.IDs) != 0 {
						t.Fatalf("mode %v: QueryBatch(k=%d, workers=%d) query %d returned %d results", mode, k, workers, qi, len(r.IDs))
					}
				}
			}
		}
	}
}

// TestQueryBatchDimensionMismatch: a batch whose dimension differs from
// the index gets N empty results, like Query on the same rows — never a
// projection panic, serial or fanned out, for every probe mode.
func TestQueryBatchDimensionMismatch(t *testing.T) {
	data := testData(t, 200, 8, 4)
	wide := testData(t, 6, 16, 5)
	for _, mode := range []ProbeMode{ProbeSingle, ProbeMulti, ProbeHierarchy} {
		ix, err := Build(data, Options{ProbeMode: mode, Probes: 8,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		if res, _ := ix.Query(wide.Row(0), 5); len(res.IDs) != 0 {
			t.Fatalf("mode %v: Query on a 16-d vector returned %d results", mode, len(res.IDs))
		}
		for _, workers := range []int{1, 4} {
			batch, stats := ix.QueryBatch(wide, Plan{K: 5}, workers)
			if len(batch) != wide.N || len(stats) != wide.N {
				t.Fatalf("mode %v workers=%d: shape %d/%d, want %d", mode, workers, len(batch), len(stats), wide.N)
			}
			for qi, r := range batch {
				if len(r.IDs) != 0 {
					t.Fatalf("mode %v workers=%d: query %d returned %d results", mode, workers, qi, len(r.IDs))
				}
			}
		}
	}
}

// TestQueryKExceedsN: asking for more neighbors than the index holds must
// return at most n results, sorted, NaN-free and without duplicate ids.
func TestQueryKExceedsN(t *testing.T) {
	data := testData(t, 60, 12, 9)
	opts := Options{Params: lshfunc.Params{M: 4, L: 3, W: 1e9}} // giant W: all rows collide
	ix, err := Build(data, opts, xrand.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res, _ := ix.Query(data.Row(0), data.N+50)
	if len(res.IDs) != data.N {
		t.Fatalf("got %d results, want all %d rows", len(res.IDs), data.N)
	}
	seen := make(map[int]bool, len(res.IDs))
	for i, id := range res.IDs {
		if seen[id] {
			t.Errorf("duplicate id %d in result", id)
		}
		seen[id] = true
		if math.IsNaN(res.Dists[i]) {
			t.Errorf("NaN distance at rank %d", i)
		}
		if i > 0 && res.Dists[i] < res.Dists[i-1] {
			t.Errorf("distances not sorted at rank %d: %v < %v", i, res.Dists[i], res.Dists[i-1])
		}
	}
}

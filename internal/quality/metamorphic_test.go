package quality

import (
	"math"
	"testing"

	"bilsh/internal/core"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Metamorphic properties of the pipeline: relations that must hold between
// runs on transformed inputs, without reference to absolute quality
// numbers. They catch bugs golden thresholds cannot — a probe generator
// that silently ignores its budget, a hash family that leaks coordinate-
// axis structure — because the relation is exact (monotonicity) or holds
// by isometry (rigid motions preserve every pairwise distance).

// metamorphicWorkload is the shared small build/query workload.
func metamorphicWorkload(t *testing.T) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	train, qs, _, err := Generators["manifold"](800, 80, 0, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	return train, qs
}

// recallOf answers qs and returns mean recall@k against truth.
func recallOf(ix *core.Index, qs *vec.Matrix, truth []knn.Result, k int) float64 {
	results, _ := ix.QueryBatch(qs, core.Plan{K: k}, 1)
	var sum float64
	for qi := range results {
		sum += knn.Recall(truth[qi].IDs, results[qi].IDs)
	}
	return sum / float64(qs.N)
}

// randomRotation builds a seeded orthogonal d×d matrix by Gram–Schmidt
// over Gaussian rows (Haar-distributed up to sign).
func randomRotation(d int, rng *xrand.RNG) [][]float64 {
	q := make([][]float64, d)
	for i := range q {
		row := make([]float64, d)
		for {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			for _, prev := range q[:i] {
				var dot float64
				for j := range row {
					dot += row[j] * prev[j]
				}
				for j := range row {
					row[j] -= dot * prev[j]
				}
			}
			var norm float64
			for j := range row {
				norm += row[j] * row[j]
			}
			if norm > 1e-12 {
				norm = math.Sqrt(norm)
				for j := range row {
					row[j] /= norm
				}
				break
			}
		}
		q[i] = row
	}
	return q
}

// applyRigid returns rot·x + shift for every row of m.
func applyRigid(m *vec.Matrix, rot [][]float64, shift []float64) *vec.Matrix {
	out := vec.NewMatrix(m.N, m.D)
	for i := 0; i < m.N; i++ {
		src, dst := m.Row(i), out.Row(i)
		for r := range rot {
			var acc float64
			for c, v := range rot[r] {
				acc += v * float64(src[c])
			}
			dst[r] = float32(acc + shift[r])
		}
	}
	return out
}

// TestRecallRotationInvariant: a rigid motion (orthogonal rotation plus
// translation) of data and queries preserves every pairwise distance, so
// ground-truth ids are unchanged and recall must agree within a small
// slack (the random projections see different coordinates, so the match
// is statistical, not exact).
func TestRecallRotationInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic suite skipped in -short mode")
	}
	train, qs := metamorphicWorkload(t)
	const k = 10
	truth := knn.ExactAll(train, qs, k)

	trng := xrand.New(77)
	rot := randomRotation(train.D, trng)
	shift := make([]float64, train.D)
	for i := range shift {
		shift[i] = trng.Uniform(-5, 5)
	}
	rtrain := applyRigid(train, rot, shift)
	rqs := applyRigid(qs, rot, shift)

	// Distances are preserved, so the rotated ground truth has the same
	// ids; sanity-check on one query before trusting it.
	rtruth := knn.Exact(rtrain, rqs.Row(0), k)
	for i, id := range truth[0].IDs {
		if rtruth.IDs[i] != id {
			t.Fatalf("rigid motion changed ground truth: query 0 rank %d: %d vs %d", i, id, rtruth.IDs[i])
		}
	}

	for _, bi := range []bool{false, true} {
		opts := core.Options{
			Lattice: core.LatticeE8, ProbeMode: core.ProbeMulti, Probes: 12,
			AutoTuneW: true, TuneK: k,
			Params: lshfunc.Params{M: 8, L: 6, W: 1.0},
		}
		name := "standard"
		if bi {
			opts.Partitioner = core.PartitionRPTree
			opts.Groups = 8
			name = "bilevel"
		}
		ix, err := core.Build(train, opts, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		rix, err := core.Build(rtrain, opts, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		orig := recallOf(ix, qs, truth, k)
		rotated := recallOf(rix, rqs, truth, k)
		const slack = 0.08
		if math.Abs(orig-rotated) > slack {
			t.Errorf("%s: recall not rotation-invariant: %.4f original vs %.4f rotated (slack %.2f)",
				name, orig, rotated, slack)
		}
		if orig < 0.3 {
			t.Errorf("%s: workload too easy to be meaningful: recall %.4f", name, orig)
		}
	}
}

// TestRecallMonotoneInProbes: the multiprobe sequence is a prefix walk, so
// with an identical build (same seed; Probes is query-time only) a larger
// budget T probes a superset of buckets. Candidate sets are supersets and
// every true neighbor found at small T is still reported at large T:
// per-query candidates and recall are exactly non-decreasing, no slack.
func TestRecallMonotoneInProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic suite skipped in -short mode")
	}
	train, qs := metamorphicWorkload(t)
	const k = 10
	truth := knn.ExactAll(train, qs, k)

	budgets := []int{1, 4, 16, 64}
	prevRecall := make([]float64, qs.N)
	prevCands := make([]int, qs.N)
	for bi, T := range budgets {
		opts := core.Options{
			Lattice: core.LatticeZM, ProbeMode: core.ProbeMulti, Probes: T,
			AutoTuneW: true, TuneK: k,
			Params: lshfunc.Params{M: 8, L: 4, W: 1.0},
		}
		ix, err := core.Build(train, opts, xrand.New(11))
		if err != nil {
			t.Fatal(err)
		}
		results, stats := ix.QueryBatch(qs, core.Plan{K: k}, 1)
		for qi := range results {
			r := knn.Recall(truth[qi].IDs, results[qi].IDs)
			if bi > 0 {
				if stats[qi].Candidates < prevCands[qi] {
					t.Fatalf("query %d: candidates dropped from %d (T=%d) to %d (T=%d)",
						qi, prevCands[qi], budgets[bi-1], stats[qi].Candidates, T)
				}
				if r < prevRecall[qi] {
					t.Fatalf("query %d: recall dropped from %.4f (T=%d) to %.4f (T=%d)",
						qi, prevRecall[qi], budgets[bi-1], r, T)
				}
			}
			prevRecall[qi], prevCands[qi] = r, stats[qi].Candidates
		}
	}
}

// TestRecallMonotoneInTables: with AutoTuneW off and a shared seed, table
// t's hash function is drawn from Split(t) independent of L, so an
// L2-table build contains an L1-table build as a prefix. Candidate sets
// are supersets; recall is exactly non-decreasing in L.
func TestRecallMonotoneInTables(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic suite skipped in -short mode")
	}
	train, qs := metamorphicWorkload(t)
	const k = 10
	truth := knn.ExactAll(train, qs, k)

	tables := []int{1, 2, 4, 8}
	prevRecall := make([]float64, qs.N)
	prevCands := make([]int, qs.N)
	for li, L := range tables {
		opts := core.Options{
			Lattice: core.LatticeE8, ProbeMode: core.ProbeSingle,
			Params: lshfunc.Params{M: 8, L: L, W: 3.0},
		}
		ix, err := core.Build(train, opts, xrand.New(19))
		if err != nil {
			t.Fatal(err)
		}
		results, stats := ix.QueryBatch(qs, core.Plan{K: k}, 1)
		for qi := range results {
			r := knn.Recall(truth[qi].IDs, results[qi].IDs)
			if li > 0 {
				if stats[qi].Candidates < prevCands[qi] {
					t.Fatalf("query %d: candidates dropped from %d (L=%d) to %d (L=%d)",
						qi, prevCands[qi], tables[li-1], stats[qi].Candidates, L)
				}
				if r < prevRecall[qi] {
					t.Fatalf("query %d: recall dropped from %.4f (L=%d) to %.4f (L=%d)",
						qi, prevRecall[qi], tables[li-1], r, L)
				}
			}
			prevRecall[qi], prevCands[qi] = r, stats[qi].Candidates
		}
	}
}

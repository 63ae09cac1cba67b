package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

func diskRoundTrip(t *testing.T, ix *Index) *DiskIndex {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.disk")
	if err := ix.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	di, err := OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { di.Close() })
	return di
}

func TestDiskIndexMatchesInMemory(t *testing.T) {
	data := testData(t, 400, 16, 71)
	queries := testData(t, 20, 16, 72)
	for _, opts := range []Options{
		{Partitioner: PartitionRPTree, Groups: 4, AutoTuneW: true,
			Params: lshfunc.Params{M: 4, L: 3, W: 1}},
		{Partitioner: PartitionRPTree, Groups: 4, Lattice: LatticeE8,
			ProbeMode: ProbeHierarchy, Params: lshfunc.Params{M: 8, L: 2, W: 2}},
		{Partitioner: PartitionNone, ProbeMode: ProbeMulti, Probes: 15,
			Params: lshfunc.Params{M: 4, L: 2, W: 2}},
	} {
		ix, err := Build(data, opts, xrand.New(73))
		if err != nil {
			t.Fatal(err)
		}
		di := diskRoundTrip(t, ix)
		if di.N() != ix.N() || di.Dim() != ix.Dim() || di.NumGroups() != ix.NumGroups() {
			t.Fatal("disk index shape differs")
		}
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			r1, s1 := ix.Query(q, 6)
			r2, s2 := di.Query(q, 6)
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("probe=%v query %d: disk results differ", opts.ProbeMode, qi)
			}
			if s1.Candidates != s2.Candidates {
				t.Fatalf("probe=%v query %d: disk stats differ", opts.ProbeMode, qi)
			}
		}
		// Parallel reads against the same file handle must be safe.
		pr, _ := di.QueryBatch(queries, Plan{K: 6}, 4)
		sr, _ := ix.QueryBatch(queries, Plan{K: 6}, 1)
		if !reflect.DeepEqual(pr, sr) {
			t.Fatal("parallel disk results differ")
		}
	}
}

func TestDiskIndexExactKNN(t *testing.T) {
	data := testData(t, 200, 8, 74)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 2, W: 2}}, xrand.New(75))
	if err != nil {
		t.Fatal(err)
	}
	di := diskRoundTrip(t, ix)
	q := data.Row(9)
	if got := di.ExactKNN(q, 3); got.IDs[0] != 9 {
		t.Fatalf("disk ExactKNN = %v", got.IDs)
	}
}

func TestDiskIndexInsertAndCompact(t *testing.T) {
	data := testData(t, 150, 8, 76)
	ix, err := Build(data, Options{Partitioner: PartitionRPTree, Groups: 3,
		Params: lshfunc.Params{M: 4, L: 3, W: 5}}, xrand.New(77))
	if err != nil {
		t.Fatal(err)
	}
	di := diskRoundTrip(t, ix)
	v := vec.Clone(data.Row(4))
	v[0] += 0.001
	id, err := di.Insert(v)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := di.Query(v, 1)
	if len(res.IDs) == 0 || res.IDs[0] != id {
		t.Fatalf("inserted point not found on disk index: %v", res.IDs)
	}
	// Re-serializing with pending inserts must fail; Compact materializes.
	if err := di.SaveDisk(filepath.Join(t.TempDir(), "dirty.disk")); err == nil {
		t.Fatal("dirty disk index must refuse re-serialization")
	}
	if _, err := di.Compact(); err != nil {
		t.Fatal(err)
	}
	// After Compact the index is in-memory and serializable again.
	if err := di.SaveDisk(filepath.Join(t.TempDir(), "clean.disk")); err != nil {
		t.Fatal(err)
	}
}

func TestDiskIndexResaveSemantics(t *testing.T) {
	data := testData(t, 100, 8, 78)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 1, W: 2}}, xrand.New(79))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// A legacy (v2) disk index fetches rows one at a time via ReadAt; it
	// cannot be re-serialized directly — WriteDiskTo must refuse rather
	// than write an empty payload.
	v2Path := filepath.Join(dir, "ix.v2")
	f, err := os.Create(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.writeDiskV2To(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	legacy, err := OpenDisk(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer legacy.Close()
	if err := legacy.SaveDisk(filepath.Join(dir, "copy.disk")); err == nil {
		t.Fatal("legacy disk-backed index must refuse direct re-serialization")
	}

	// A paged (v3) index addresses its rows through the mapping, so a
	// clean one CAN re-save; the copy must open and query identically.
	di := diskRoundTrip(t, ix)
	copyPath := filepath.Join(dir, "copy.v3")
	if err := di.SaveDisk(copyPath); err != nil {
		t.Fatalf("paged disk index re-save: %v", err)
	}
	di2, err := OpenDisk(copyPath)
	if err != nil {
		t.Fatal(err)
	}
	defer di2.Close()
	q := data.Row(3)
	r1, _ := di.Query(q, 5)
	r2, _ := di2.Query(q, 5)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("re-saved paged index queries differently")
	}
}

func TestOpenDiskRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad")
	if err := os.WriteFile(bad, []byte("definitely not an index"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(bad); err == nil {
		t.Fatal("garbage must be rejected")
	}
	if _, err := OpenDisk(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file must be rejected")
	}
}

func TestOpenDiskRejectsTruncatedPayload(t *testing.T) {
	data := testData(t, 120, 8, 80)
	ix, err := Build(data, Options{Partitioner: PartitionNone,
		Params: lshfunc.Params{M: 4, L: 1, W: 2}}, xrand.New(81))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trunc.disk")
	if err := ix.SaveDisk(path); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)-100], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(path); err == nil {
		t.Fatal("truncated payload must be rejected at open")
	}
}

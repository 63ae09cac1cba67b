package main

import (
	"math"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func TestTailLevel(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true}, {1000, 99, true}, {999, 98, true}, {200, 95, true},
		{100, 90, true}, {20, 50, true}, {19, 0, false},
	} {
		got, ok := tailLevel(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailLevel(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeLeavesTenBeyondTail(t *testing.T) {
	var ms []float64
	for i := 1000; i >= 1; i-- {
		ms = append(ms, float64(i))
	}
	s, err := summarize(ms)
	if err != nil {
		t.Fatal(err)
	}
	if s.P50 != 500 || s.Tail != 990 || s.TailLevel != 99 || s.N != 1000 || s.Max != 1000 {
		t.Fatalf("summary %+v", s)
	}
	beyond := 0
	for _, v := range ms {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond the tail, want >= %d", beyond, minBeyond)
	}
	if _, err := summarize(ms[:19]); err == nil {
		t.Fatal("19 samples: want an error, not a median")
	}
}

// Spread bounds are checked with Python's statistics.quantiles(n=4);
// these expectations are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 9, 3}, 1.5, 8},
		{[]float64{2, 4}, 1.5, 4.5},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestWindowedTailIgnoresOneStalledWindow(t *testing.T) {
	ms := make([]float64, 4*tailWindow)
	for i := range ms {
		ms[i] = float64(i % 100)
	}
	for i := 0; i < 50; i++ {
		ms[i] = 1000 // a stall at the start of the first window
	}
	got, err := windowedTail(ms)
	if err != nil {
		t.Fatal(err)
	}
	if got != 89 {
		t.Fatalf("windowed tail %v, want the undisturbed windows' p90 (89)", got)
	}
	whole, _ := summarize(ms)
	if whole.Tail != 1000 {
		t.Fatalf("whole-run tail %v: the stall should dominate it", whole.Tail)
	}
}

func TestRecallAt(t *testing.T) {
	if got := recallAt([]int{1, 2, 3, 9}, []int32{3, 2, 1, 4}); got != 0.75 {
		t.Fatalf("recall %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	us := time.Microsecond
	spans := []span{
		{name: "root", start: 0, end: 100 * us, parent: -1},
		{name: "a", start: 10 * us, end: 30 * us, parent: 0},
		{name: "b", start: 20 * us, end: 50 * us, parent: 0}, // overlaps a
		{name: "c", start: 60 * us, end: 70 * us, parent: 0},
		{name: "c1", start: 62 * us, end: 65 * us, parent: 3},
		{name: "late", start: 95 * us, end: 120 * us, parent: 0}, // runs past its parent
	}
	got := selfTimes(spans)
	want := []time.Duration{45 * us, 20 * us, 30 * us, 7 * us, 3 * us, 25 * us}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestLayerSumRatio(t *testing.T) {
	if got := layerSumRatio(200, 20, 30, 50, 100); got != 1 {
		t.Fatalf("ratio %v", got)
	}
}

func TestJudge(t *testing.T) {
	lower := direction{sign: -1, bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 10.1, 9.9, 10, 10}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, b := range base {
		faster[i], slower[i] = b*0.8, b*1.3
	}
	if _, v := judge(base, faster, lower); v != "improved" {
		t.Errorf("faster: %s", v)
	}
	if _, v := judge(base, slower, lower); v != "worse" {
		t.Errorf("slower: %s", v)
	}
	if _, v := judge(base, base, lower); v != "flat" {
		t.Errorf("same: %s", v)
	}
	if _, v := judge(base[:5], faster[:5], lower); v == "improved" {
		t.Error("five pairs cannot show a gain")
	}
	noisy := []float64{5, 15, 6, 14, 7, 13, 8, 12, 9, 11}
	if _, v := judge(noisy, noisy, lower); v != "unresolved" {
		t.Errorf("spread wider than the bound: %s", v)
	}
	if _, v := judge(base, faster, direction{sign: 1}); v != "worse" {
		t.Errorf("per-layer loss in every pair: %s", v)
	}
}

func TestCheckReply(t *testing.T) {
	ok := queryReply{Neighbors: []neighbor{{1, 0.5}, {2, 0.5}, {0, 1}}, Candidates: 3}
	if err := checkReply(ok, 3, 3); err != nil {
		t.Fatal(err)
	}
	miss := queryReply{Neighbors: ok.Neighbors[:1], Candidates: 1}
	if err := checkReply(miss, 3, 3); err != nil {
		t.Fatalf("fewer candidates than k: %v", err)
	}
	for name, q := range map[string]queryReply{
		"short":      {Neighbors: ok.Neighbors[:2], Candidates: 5},
		"descending": {Neighbors: []neighbor{{1, 2}, {2, 1}, {0, 3}}},
		"range":      {Neighbors: []neighbor{{1, 1}, {2, 2}, {3, 3}}},
		"duplicate":  {Neighbors: []neighbor{{1, 1}, {1, 2}, {0, 3}}},
		"partial":    {Neighbors: ok.Neighbors, Partial: true},
	} {
		if checkReply(q, 3, 3) == nil {
			t.Errorf("%s reply accepted", name)
		}
	}
}

func TestBruteForceMatchesSort(t *testing.T) {
	m := newModel(7, 7, 5, 3, 2)
	base, qs := m.rows(300), m.rows(4)
	got := bruteForce(base, 5, rowsOf(qs, 5, 4), 6, 2)
	for qi, q := range rowsOf(qs, 5, 4) {
		ids := make([]int, 300)
		for i := range ids {
			ids[i] = i
		}
		sort.SliceStable(ids, func(a, b int) bool {
			return sqDist32(base[ids[a]*5:ids[a]*5+5], q) < sqDist32(base[ids[b]*5:ids[b]*5+5], q)
		})
		for r := 0; r < 6; r++ {
			if int(got[qi][r]) != ids[r] {
				t.Fatalf("query %d rank %d: %d, want %d", qi, r, got[qi][r], ids[r])
			}
		}
	}
}

// TestReferenceInputs pins every workload's inputs at the reference
// seed to the hashes recorded in workloads.json.
func TestReferenceInputs(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	for name, wl := range cfg.Workloads {
		ref := cfg.ReferenceHashes[name]
		if ref["base"] == "" || ref["queries"] == "" {
			t.Errorf("%s: no reference input hashes recorded", name)
			continue
		}
		r := &run{seed: cfg.ReferenceSeed, wl: wl}
		ds := r.generate()
		dir := t.TempDir()
		hb, err := writeFvecs(filepath.Join(dir, "b"), ds.base, ds.d)
		if err != nil {
			t.Fatal(err)
		}
		hq, err := writeFvecs(filepath.Join(dir, "q"), ds.queries, ds.d)
		if err != nil {
			t.Fatal(err)
		}
		if hb != ref["base"] || hq != ref["queries"] {
			t.Errorf("%s: inputs hash to %s/%s, recorded %s/%s", name, hb, hq, ref["base"], ref["queries"])
		}
	}
}

func TestConfigCoversEveryLayerMetric(t *testing.T) {
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]MetricDoc(nil), cfg.EndToEnd...), cfg.PerLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, m := range cfg.PerLayer {
		if m.Source == "" || m.Moves == "" || m.MovesOn == "" || m.FlatOn == "" {
			t.Errorf("per-layer metric %s lacks its source or its expected movement", m.Name)
		}
	}
}

package quality

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"

	"bilsh/internal/core"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// Dynamics names the index lifecycle stage a cell measures.
const (
	// DynStatic queries the freshly built index (the paper's protocol).
	DynStatic = "static"
	// DynOverlay queries after inserts and deletes, before Compact — the
	// memtable/frozen-segment overlay path.
	DynOverlay = "overlay"
	// DynCompacted queries after Compact folded the overlay in.
	DynCompacted = "compacted"
)

var allDynamics = []string{DynStatic, DynOverlay, DynCompacted}
var allLattices = []core.LatticeKind{core.LatticeZM, core.LatticeE8}
var allProbes = []core.ProbeMode{core.ProbeSingle, core.ProbeMulti, core.ProbeHierarchy}

// Cell is one matrix position.
type Cell struct {
	Dataset  string
	Lattice  core.LatticeKind
	Probe    core.ProbeMode
	BiLevel  bool
	Dynamics string
}

// Partition returns the level-1 label ("standard" or "bilevel").
func (c Cell) Partition() string {
	if c.BiLevel {
		return "bilevel"
	}
	return "standard"
}

// Key is the stable identifier the golden threshold table is keyed by.
func (c Cell) Key() string {
	return strings.Join([]string{c.Dataset, c.Lattice.String(), c.Probe.String(), c.Partition(), c.Dynamics}, "/")
}

// Cells enumerates the full matrix for a config, in deterministic order.
func Cells(cfg Config) []Cell {
	var out []Cell
	for _, ds := range cfg.Datasets {
		for _, lat := range allLattices {
			for _, probe := range allProbes {
				for _, bi := range []bool{false, true} {
					for _, dyn := range allDynamics {
						out = append(out, Cell{Dataset: ds, Lattice: lat, Probe: probe, BiLevel: bi, Dynamics: dyn})
					}
				}
			}
		}
	}
	return out
}

// Measure is one cell's quality numbers: mean recall@K (Eq. 3), mean
// distance-error ratio (Eq. 4, 1.0 = exact), mean selectivity (Eq. 5) and
// the mean distinct candidate count behind it (the candidate-set cost).
type Measure struct {
	Recall      float64 `json:"recall"`
	ErrorRatio  float64 `json:"error_ratio"`
	Selectivity float64 `json:"selectivity"`
	Candidates  float64 `json:"candidates"`
}

// CellResult is one evaluated matrix cell, with its golden threshold and
// verdict attached by Check.
type CellResult struct {
	Key       string `json:"key"`
	Dataset   string `json:"dataset"`
	Lattice   string `json:"lattice"`
	Probe     string `json:"probe"`
	Partition string `json:"partition"`
	Dynamics  string `json:"dynamics"`
	Measure
	Threshold *Threshold `json:"threshold,omitempty"`
	Pass      bool       `json:"pass"`
}

// Report is one full quality run. Its JSON form is what `make quality`
// writes to BENCH_quality.json; it contains nothing non-deterministic
// (no timings, no timestamps, no map iteration), so two runs of the same
// tree produce byte-identical files.
type Report struct {
	Config Config `json:"config"`
	// Cells are sorted by Key.
	Cells []CellResult `json:"cells"`
	// OrderingViolations lists (dataset, lattice, probe, dynamics) tuples
	// where the Bi-level cell failed to reach its standard-LSH baseline's
	// recall within the golden ordering slack (the Fig. 7 assertion).
	OrderingViolations []string `json:"ordering_violations"`
	// Pass is the aggregate verdict: every cell met its threshold and no
	// ordering violation occurred.
	Pass bool `json:"pass"`
}

// Run evaluates the whole matrix. The returned report has no thresholds
// or verdicts attached yet; pass it to Check.
func Run(cfg Config) (*Report, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Fvecs {
		return runFvecs(cfg)
	}
	rep := &Report{Config: cfg}
	for _, ds := range cfg.Datasets {
		results, err := runDataset(cfg, ds)
		if err != nil {
			return nil, fmt.Errorf("quality: dataset %s: %w", ds, err)
		}
		rep.Cells = append(rep.Cells, results...)
	}
	slices.SortFunc(rep.Cells, func(a, b CellResult) int { return strings.Compare(a.Key, b.Key) })
	return rep, nil
}

// workload is one dataset's fully resolved measurement input: the
// matrices, the dynamic edit sets, and the ground truth per lifecycle
// stage. The oracle path (runDataset) fills it from a generator plus the
// cached brute-force oracle; the planted path (plantedWorkload) fills it
// by construction, with no oracle involved.
type workload struct {
	train, qs, ins                          *vec.Matrix
	delBase, delIns                         []int
	staticTruth, overlayTruth, compactTruth []knn.Result
	// liveN is the live item count after the edits — the selectivity
	// denominator |S| of Eq. 5 for the overlay and compacted stages.
	liveN int
}

// runDataset evaluates every configuration cell over one workload. Each
// (lattice, probe, partition) index is built once and measured at all
// three lifecycle stages: static, after the seeded insert/delete workload
// (overlay), and after Compact.
func runDataset(cfg Config, ds string) ([]CellResult, error) {
	if cfg.Planted {
		w, err := plantedWorkload(cfg)
		if err != nil {
			return nil, err
		}
		return runCells(cfg, ds, w)
	}
	train, qs, ins, err := Generators[ds](cfg.N, cfg.Queries, cfg.Inserts, cfg.D, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// The seeded dynamic workload, shared by every cell: ids are assigned
	// sequentially by Insert, so the delete sets are knowable up front.
	wrng := xrand.New(cfg.Seed).Split(1000)
	delBase := wrng.Sample(cfg.N, cfg.DeleteBase)
	delIns := wrng.Sample(cfg.Inserts, cfg.DeleteInserted)
	deleted := make([]bool, cfg.N+cfg.Inserts)
	for _, id := range delBase {
		deleted[id] = true
	}
	for _, j := range delIns {
		deleted[cfg.N+j] = true
	}

	// Ground truth per lifecycle stage (cached golden files). The overlay
	// and compacted stages share one live set; only the id space differs
	// (Compact remaps survivors densely in id order).
	staticTruth, _, err := groundTruth(cfg.CacheDir, train, qs, nil, cfg.K)
	if err != nil {
		return nil, err
	}
	liveIDs := make([]int32, 0, cfg.N+cfg.Inserts-cfg.DeleteBase-cfg.DeleteInserted)
	remap := make([]int, cfg.N+cfg.Inserts)
	for id := range deleted {
		if deleted[id] {
			remap[id] = -1
			continue
		}
		remap[id] = len(liveIDs)
		liveIDs = append(liveIDs, int32(id))
	}
	liveRows := vec.NewMatrix(len(liveIDs), cfg.D)
	for i, id := range liveIDs {
		if int(id) < cfg.N {
			copy(liveRows.Row(i), train.Row(int(id)))
		} else {
			copy(liveRows.Row(i), ins.Row(int(id)-cfg.N))
		}
	}
	overlayTruth, _, err := groundTruth(cfg.CacheDir, liveRows, qs, liveIDs, cfg.K)
	if err != nil {
		return nil, err
	}
	compactTruth := make([]knn.Result, len(overlayTruth))
	for qi, r := range overlayTruth {
		cr := knn.Result{IDs: make([]int, len(r.IDs)), Dists: r.Dists}
		for i, id := range r.IDs {
			cr.IDs[i] = remap[id]
		}
		compactTruth[qi] = cr
	}

	return runCells(cfg, ds, workload{
		train: train, qs: qs, ins: ins,
		delBase: delBase, delIns: delIns,
		staticTruth: staticTruth, overlayTruth: overlayTruth, compactTruth: compactTruth,
		liveN: liveRows.N,
	})
}

// runCells sweeps the configuration matrix over one resolved workload.
func runCells(cfg Config, ds string, w workload) ([]CellResult, error) {
	quantize, err := core.ParseQuantizeKind(cfg.Quantize)
	if err != nil {
		return nil, err
	}
	buildSeed := mixSeed(cfg.Seed, ds)
	var out []CellResult
	for _, lat := range allLattices {
		for _, probe := range allProbes {
			for _, bi := range []bool{false, true} {
				opts := core.Options{
					Lattice:           lat,
					ProbeMode:         probe,
					Probes:            cfg.Probes,
					AutoTuneW:         true,
					TuneK:             cfg.K,
					MemtableThreshold: cfg.MemtableThreshold,
					Quantize:          quantize,
					Params:            lshfunc.Params{M: cfg.M, L: cfg.L, W: cfg.Widths.width(bi, probe)},
				}
				if bi {
					opts.Partitioner = core.PartitionRPTree
					opts.Groups = cfg.Groups
				}
				ix, err := core.Build(w.train, opts, xrand.New(buildSeed))
				if err != nil {
					return nil, fmt.Errorf("%v/%v/%s build: %w", lat, probe, Cell{BiLevel: bi}.Partition(), err)
				}

				cell := Cell{Dataset: ds, Lattice: lat, Probe: probe, BiLevel: bi}
				cell.Dynamics = DynStatic
				out = append(out, measureCell(cell, ix, w.qs, w.staticTruth, cfg, cfg.N))

				// Apply the shared dynamic workload, measure the overlay,
				// compact, measure again.
				for i := 0; i < w.ins.N; i++ {
					if _, err := ix.Insert(w.ins.Row(i)); err != nil {
						return nil, fmt.Errorf("%s insert %d: %w", cell.Key(), i, err)
					}
				}
				for _, id := range w.delBase {
					ix.Delete(id)
				}
				for _, j := range w.delIns {
					ix.Delete(cfg.N + j)
				}
				cell.Dynamics = DynOverlay
				out = append(out, measureCell(cell, ix, w.qs, w.overlayTruth, cfg, w.liveN))

				if _, err := ix.Compact(); err != nil {
					return nil, fmt.Errorf("%s compact: %w", cell.Key(), err)
				}
				cell.Dynamics = DynCompacted
				out = append(out, measureCell(cell, ix, w.qs, w.compactTruth, cfg, w.liveN))
			}
		}
	}
	return out, nil
}

// width picks the calibrated width scale for a (partitioner, probe) pair.
func (w Widths) width(biLevel bool, probe core.ProbeMode) float64 {
	pw := w.Standard
	if biLevel {
		pw = w.BiLevel
	}
	switch probe {
	case core.ProbeMulti:
		return pw.Multi
	case core.ProbeHierarchy:
		return pw.Hierarchy
	default:
		return pw.Single
	}
}

// measureCell answers the query set and aggregates the quality metrics
// against the stage's ground truth. n is the live item count (the
// selectivity denominator |S| of Eq. 5). cfg.TargetRecall, when set, is
// the batch plan's recall SLO; the same thresholds apply either way.
func measureCell(cell Cell, ix *core.Index, qs *vec.Matrix, truth []knn.Result, cfg Config, n int) CellResult {
	k := cfg.K
	results, stats := ix.QueryBatch(qs, core.Plan{K: k, TargetRecall: cfg.TargetRecall}, 1)
	ms := make([]knn.QueryMeasure, qs.N)
	var cands float64
	for qi := range ms {
		ms[qi] = knn.Measure(truth[qi], results[qi], stats[qi].Candidates, n)
		cands += float64(stats[qi].Candidates)
	}
	agg := knn.AggregateQueries(ms)
	return CellResult{
		Key:       cell.Key(),
		Dataset:   cell.Dataset,
		Lattice:   cell.Lattice.String(),
		Probe:     cell.Probe.String(),
		Partition: cell.Partition(),
		Dynamics:  cell.Dynamics,
		Measure: Measure{
			Recall:      agg.Recall.Mean,
			ErrorRatio:  agg.ErrorRatio.Mean,
			Selectivity: agg.Selectivity.Mean,
			Candidates:  cands / float64(qs.N),
		},
	}
}

// mixSeed derives a deterministic per-dataset build seed.
func mixSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, name)
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

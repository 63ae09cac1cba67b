package experiments

import (
	"fmt"

	"bilsh/internal/core"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

// Method is one labeled index configuration under test.
type Method struct {
	Name string
	Opts core.Options
}

// StandardLSH returns the baseline method: no level-1 partitioning.
func StandardLSH(lat core.LatticeKind, probe core.ProbeMode, m, l int) Method {
	name := "standard"
	switch probe {
	case core.ProbeMulti:
		name = "multiprobe standard"
	case core.ProbeHierarchy:
		name = "hierarchical standard"
	}
	return Method{
		Name: fmt.Sprintf("%s LSH (%v)", name, lat),
		Opts: core.Options{
			Partitioner: core.PartitionNone,
			Lattice:     lat,
			ProbeMode:   probe,
			AutoTuneW:   true,
			Params:      lshfunc.Params{M: m, L: l, W: 1},
		},
	}
}

// BiLevelLSH returns the paper's method with the given enhancement.
func BiLevelLSH(lat core.LatticeKind, probe core.ProbeMode, m, l, groups int) Method {
	name := "Bi-level"
	switch probe {
	case core.ProbeMulti:
		name = "multiprobe Bi-level"
	case core.ProbeHierarchy:
		name = "hierarchical Bi-level"
	}
	return Method{
		Name: fmt.Sprintf("%s LSH (%v)", name, lat),
		Opts: core.Options{
			Partitioner: core.PartitionRPTree,
			Groups:      groups,
			Lattice:     lat,
			ProbeMode:   probe,
			AutoTuneW:   true,
			Params:      lshfunc.Params{M: m, L: l, W: 1},
		},
	}
}

// Point is one sweep position: the scaled width plus the aggregated
// variance summary of Reps independent projection draws.
type Point struct {
	WScale float64
	knn.VarianceSummary
}

// Series is one method's curve.
type Series struct {
	Method string
	L      int
	Points []Point
}

// RunSweep traces one method across the width sweep: for every WScale it
// rebuilds the index Reps times with independent projections, answers the
// whole query set, and aggregates the metrics per Section VI-B2.
func RunSweep(w *Workload, method Method, l int) (Series, error) {
	cfg := w.Cfg
	series := Series{Method: method.Name, L: l, Points: make([]Point, 0, len(cfg.WScales))}
	for wi, scale := range cfg.WScales {
		runs := make([]knn.RunMeasure, 0, cfg.Reps)
		for rep := 0; rep < cfg.Reps; rep++ {
			opts := method.Opts
			opts.Params.M = cfg.M
			if method.Opts.Params.M != 0 {
				opts.Params.M = method.Opts.Params.M
			}
			opts.Params.L = l
			opts.Params.W = scale
			opts.TuneK = cfg.K
			if opts.Groups == 0 {
				opts.Groups = cfg.Groups
			}
			seed := cfg.Seed*1_000_003 + int64(wi)*101 + int64(rep) + 7
			// The projection seed varies per rep but is shared across
			// methods and W values, matching the paper's protocol of
			// resampling projections per execution.
			ix, err := core.Build(w.Train, opts, xrand.New(seed))
			if err != nil {
				return Series{}, fmt.Errorf("experiments: %s W=%g rep %d: %w", method.Name, scale, rep, err)
			}
			runs = append(runs, measureRun(w, ix))
		}
		series.Points = append(series.Points, Point{WScale: scale, VarianceSummary: knn.AggregateRuns(runs)})
	}
	return series, nil
}

// measureRun answers every query and aggregates per-query metrics.
//
// Selectivity counts the *distinct* candidates |A(v)| of Eq. 5 — A(v) is a
// set in the paper's formalism, and the deduplicated count is what the
// short-list search actually ranks. (QueryStats also exposes the scanned
// multiset size for cost modeling; see the Figure 4 harness.)
func measureRun(w *Workload, ix *core.Index) knn.RunMeasure {
	results, stats := ix.QueryBatch(w.Queries, core.Plan{K: w.Cfg.K}, 1)
	ms := make([]knn.QueryMeasure, w.Queries.N)
	for qi := range ms {
		ms[qi] = knn.Measure(w.Truth[qi], results[qi], stats[qi].Candidates, w.Train.N)
	}
	return knn.AggregateQueries(ms)
}

// Imagesearch: content-based image retrieval, the paper's motivating
// application. A corpus of synthetic GIST-like descriptors (clusters =
// recurring scene types) is indexed once; the example then compares four
// retrieval configurations — standard LSH, multiprobe standard, Bi-level,
// and hierarchical Bi-level — at the quality/selectivity trade-off, and
// prints a small "search session" for one query image.
//
// Run with:
//
//	go run ./examples/imagesearch
package main

import (
	"fmt"
	"log"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/dataset"
	"bilsh/internal/knn"
	"bilsh/internal/lshfunc"
	"bilsh/internal/xrand"
)

func main() {
	rng := xrand.New(7)

	// A photo collection: 8000 images as 128-dim GIST-like descriptors
	// drawn from 32 scene types of varying visual tightness, with 200
	// held-out query photos.
	spec := dataset.DefaultClusteredSpec(8200, 128)
	data, _, err := dataset.Clustered(spec, rng.Split(1))
	if err != nil {
		log.Fatal(err)
	}
	corpus, queries := dataset.Split(data, 200, rng.Split(2))

	const k = 20
	fmt.Printf("corpus: %d images, dim %d; %d query images, k=%d\n\n",
		corpus.N, corpus.D, queries.N, k)
	truth := knn.ExactAll(corpus, queries, k)

	configs := []struct {
		name string
		opts core.Options
	}{
		{"standard LSH", core.Options{
			Partitioner: core.PartitionNone, AutoTuneW: true,
			Params: lshfunc.Params{M: 8, L: 10, W: 1}}},
		{"multiprobe standard LSH", core.Options{
			Partitioner: core.PartitionNone, AutoTuneW: true,
			ProbeMode: core.ProbeMulti, Probes: 40,
			Params: lshfunc.Params{M: 8, L: 10, W: 0.6}}},
		{"Bi-level LSH", core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			Params: lshfunc.Params{M: 8, L: 10, W: 1}}},
		{"hierarchical Bi-level LSH", core.Options{
			Partitioner: core.PartitionRPTree, Groups: 16, AutoTuneW: true,
			ProbeMode: core.ProbeHierarchy,
			Params:    lshfunc.Params{M: 8, L: 10, W: 1}}},
	}

	fmt.Printf("%-28s %10s %10s %10s %12s %12s\n",
		"method", "recall", "error", "select.", "build", "query/img")
	var bilevel *core.Index
	for i, c := range configs {
		start := time.Now()
		ix, err := core.Build(corpus, c.opts, rng.Split(int64(10+i)))
		if err != nil {
			log.Fatal(err)
		}
		buildDur := time.Since(start)

		start = time.Now()
		results, stats := ix.QueryBatch(queries, core.Plan{K: k}, 1)
		queryDur := time.Since(start)

		var recall, errRatio, sel float64
		for qi := range results {
			recall += knn.Recall(truth[qi].IDs, results[qi].IDs)
			errRatio += knn.ErrorRatio(truth[qi].Dists, results[qi].Dists)
			sel += knn.Selectivity(stats[qi].Candidates, corpus.N)
		}
		n := float64(queries.N)
		fmt.Printf("%-28s %10.3f %10.3f %10.4f %12v %12v\n",
			c.name, recall/n, errRatio/n, sel/n,
			buildDur.Round(time.Millisecond),
			(queryDur / time.Duration(queries.N)).Round(time.Microsecond))
		if c.name == "Bi-level LSH" {
			bilevel = ix
		}
	}

	// A search session: show one query's nearest images with distances.
	fmt.Println("\nsample search (Bi-level LSH):")
	q := queries.Row(0)
	res, st := bilevel.Query(q, 5)
	fmt.Printf("query image 0 routed to scene group %d; scanned %d candidates\n",
		st.Group, st.Candidates)
	for rank, id := range res.IDs {
		fmt.Printf("  #%d image %5d  distance %.3f\n", rank+1, id, res.Dists[rank])
	}
}

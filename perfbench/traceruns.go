package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/router"
)

// traceQueries is how many queries the in-process layer probes time.
const traceQueries = 200

// ownedInserts is how many fresh rows the owned durable exercise draws.
const ownedInserts = 2000

func (r *run) traceKnnBatch(ds *dataset, ps []*proc, send func(int) bool, index string) error {
	nb := ds.nq() / r.wl.Batch
	r.traceLoad(func(d time.Duration, tr *tracer) []sample {
		return closed(d, func(i int) bool {
			if tr != nil {
				defer tr.end(tr.begin("client.batch", -1, i))
			}
			return send(i % nb)
		})
	})
	ix, err := loadIndex(index)
	if err != nil {
		return err
	}
	r.metric("mmap.rows_resident_frac", "fraction", 1) // heap rows are all resident
	return r.traceHeapServed(ds, ps, ix)
}

// traceHeapServed runs the layer probes for a single heap-served index:
// the router layer is a one-shard scatter router over the server and
// the route is a two-shard map over the index's own tree.
func (r *run) traceHeapServed(ds *dataset, ps []*proc, ix *core.Index) error {
	route, err := treeMap(ix)
	if err != nil {
		return err
	}
	rt, err := scatterRouter(ps[0].url)
	if err != nil {
		return err
	}
	if err := r.traceLayers(layerInputs{
		ix: ix, rows: ds.base, tree: ix.Tree(), queries: rowsOf(ds.queries, ds.d, min(traceQueries, ds.nq())),
		direct: ps[0].url, servers: ps, route: route, rt: rt, spill: 1,
		owned: ix, fresh: r.freshRows(ownedInserts),
	}); err != nil {
		return err
	}
	return r.checkMetrics()
}

func (r *run) traceSharded(ds *dataset, dep shardedDeploy, query func(*conn, job) bool, conns []*conn) error {
	wl := r.wl
	r.traceLoad(func(d time.Duration, tr *tracer) []sample {
		do := spanned(tr, "client.query", query)
		return closedConns(d, conns, func(c *conn, i int) bool { return do(c, job{arg: i % ds.nq()}) })
	})
	shardDir := r.path("shards")
	full, err := loadIndex(r.path("full.bilsh"))
	if err != nil {
		return err
	}
	m, err := router.LoadShardMap(shardDir + "/shardmap.bin")
	if err != nil {
		return err
	}
	sets := make([]router.ShardSet, len(dep.shards))
	for i, p := range dep.shards {
		sets[i] = router.ShardSet{Addrs: []string{p.url}}
	}
	rt, err := router.New(router.Options{Map: m, Shards: sets, Spill: wl.Spill, Client: &http.Client{Transport: &http.Transport{Proxy: nil}}})
	if err != nil {
		return err
	}
	// Shard 0 in process, with the benchmark's copy of its rows in the
	// shard's local order, and the queries whose home shard it is.
	di, err := core.OpenDisk(shardDir + "/shard0.disk")
	if err != nil {
		return err
	}
	defer di.Close()
	globals, err := readIDMap(shardDir + "/shard0.ids")
	if err != nil {
		return err
	}
	rows := make([]float32, 0, len(globals)*ds.d)
	for _, g := range globals {
		rows = append(rows, ds.row(g)...)
	}
	var qs [][]float32
	for i := 0; i < ds.nq() && len(qs) < traceQueries; i++ {
		if m.ShardOf(ds.query(i)) == 0 {
			qs = append(qs, ds.query(i))
		}
	}
	var resident float64
	for _, p := range dep.shards {
		resident += serverCounter(p.url+"/metrics", "bilsh_core_mmap_rows_resident_bytes")
	}
	r.metric("mmap.rows_resident_frac", "fraction", resident/float64(len(ds.base)*4))
	if err := r.traceLayers(layerInputs{
		ix: di.Index, rows: rows, sq8: true, tree: full.Tree(), queries: qs,
		direct: dep.shards[0].url, servers: dep.shards, route: m, rt: rt, spill: wl.Spill,
		owned: full, fresh: r.freshRows(ownedInserts),
	}); err != nil {
		return err
	}
	return r.checkMetrics()
}

// readIDMap reads a shard id map ("local global" lines) into the global
// id of each local id.
func readIDMap(path string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fs := strings.Fields(sc.Text())
		if len(fs) != 2 {
			continue
		}
		local, err1 := strconv.Atoi(fs[0])
		global, err2 := strconv.Atoi(fs[1])
		if err1 != nil || err2 != nil || local != len(out) {
			return nil, fmt.Errorf("%s: malformed line %q", path, sc.Text())
		}
		out = append(out, global)
	}
	return out, sc.Err()
}

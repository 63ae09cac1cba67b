package main

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"bilsh/internal/core"
	"bilsh/internal/durable"
	"bilsh/internal/httpx"
	"bilsh/internal/lattice"
	"bilsh/internal/lshfunc"
	"bilsh/internal/metrics"
	"bilsh/internal/multiprobe"
	"bilsh/internal/router"
	"bilsh/internal/rptree"
	"bilsh/internal/server"
	"bilsh/internal/topk"
	"bilsh/internal/vec"
	"bilsh/internal/xrand"
)

// tracer keeps spans in memory; they are summarised when the run ends.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.origin), end: -1, parent: parent, req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// around records fn as a span.
func (t *tracer) around(name string, parent, req int, fn func()) {
	i := t.begin(name, parent, req)
	fn()
	t.end(i)
}

// meanUs is the mean duration in µs of the spans called name, per
// request that has at least one (repeated calls in a request add up).
func (t *tracer) meanUs(name string) float64 {
	per := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.name == name {
			per[s.req] += s.end - s.start
		}
	}
	if len(per) == 0 {
		return math.NaN()
	}
	var sum time.Duration
	for _, d := range per {
		sum += d
	}
	return float64(sum) / float64(len(per)) / 1e3
}

// layerInputs is what the in-process layer probes run on: the index a
// query reaches in the deployment and the benchmark's own copy of its
// rows, plus the deployment's servers for the socket-level spans.
type layerInputs struct {
	ix      *core.Index
	rows    []float32 // row-major, in ix's local id order
	sq8     bool
	tree    *rptree.Tree // the level-1 tree queries are routed with
	queries [][]float32
	direct  string // URL of the process that runs ix's queries
	servers []*proc
	route   *router.ShardMap
	rt      *router.Router
	spill   int
	owned   *core.Index // base of the owned durable exercise
	fresh   [][]float32 // rows the owned durable exercise inserts
}

// traceLoad measures the workload's load with client spans off and on
// (half the run each) for trace.overhead_frac and loadgen.late_ms.
func (r *run) traceLoad(load func(half time.Duration, tr *tracer) []sample) {
	half := r.seconds / 2
	plain := load(half, nil)
	tr := newTracer()
	traced := load(half, tr)
	p50 := func(ss []sample) float64 {
		var ms []float64
		for _, s := range ss {
			if s.ok {
				ms = append(ms, s.latencyMs())
			}
		}
		return median(ms)
	}
	for _, ss := range [][]sample{plain, traced} {
		r.gate.add(len(ss), len(ss)-okCount(ss))
	}
	base := p50(plain)
	r.metric("trace.overhead_frac", "fraction", (p50(traced)-base)/base)
	r.detail.Fingerprint.LoadgenLateMs = lateMs(append(plain, traced...))
	r.metric("loadgen.late_ms", "ms", r.detail.Fingerprint.LoadgenLateMs)
	r.note("client_spans", len(tr.spans))
}

// spanned wraps a job sender so each request is recorded as a span.
func spanned(tr *tracer, name string, do func(*conn, job) bool) func(*conn, job) bool {
	if tr == nil {
		return do
	}
	return func(c *conn, j job) bool {
		i := tr.begin(name, -1, j.arg)
		ok := do(c, j)
		tr.end(i)
		return ok
	}
}

// traceLayers times the public calls of every layer on in.queries and
// reports the per-layer metrics.
func (r *run) traceLayers(in layerInputs) error {
	k, d := r.cfg.K, in.ix.Dim()
	opts := in.ix.Options()
	tr := newTracer()
	fam, err := lshfunc.NewFamily(d, lshfunc.Params{M: opts.Params.M, L: opts.Params.L, W: 1}, xrand.New(int64(r.seed)))
	if err != nil {
		return err
	}
	zm := lattice.NewZM(opts.Params.M)
	probes := 1
	if opts.ProbeMode == core.ProbeMulti {
		probes = opts.Probes
	}
	rerank := 4
	if opts.RerankFactor > 0 {
		rerank = opts.RerankFactor
	}
	var qm *vec.QuantizedMatrix
	if in.sq8 {
		qm = vec.QuantizeSQ8(vec.FromRows(rowsOf(in.rows, d, len(in.rows)/d)))
	}
	srv := server.New(in.ix, false).Handler()
	direct := newConn()
	defer direct.close()
	proj := make([][]float64, opts.Params.L)
	for t := range proj {
		proj[t] = make([]float64, opts.Params.M)
	}
	var code []int32
	var mp multiprobe.Scratch
	var cands, scanned, tables, probesN, scanBytes, fanout float64
	before, err := statAll(in.servers)
	if err != nil {
		return err
	}
	for qi, q := range in.queries {
		root := tr.begin("probe", -1, qi)
		var ps core.PlanStats
		tr.around("core.query", root, qi, func() { _, ps = in.ix.QueryPlan(q, core.Plan{K: k}) })
		var idsList []int
		var st core.QueryStats
		tr.around("core.gather", root, qi, func() { idsList, st = in.ix.CandidateList(q) })
		cands += float64(st.Candidates)
		scanned += float64(st.Scanned)
		probesN += float64(st.Probes)
		tables += float64(ps.TablesProbed)
		tr.around("rptree.leaf", root, qi, func() { in.tree.Leaf(q) })
		tr.around("lshfunc.project", root, qi, func() {
			for t := range proj {
				fam.Project(t, q, proj[t])
			}
		})
		tr.around("lattice.decode", root, qi, func() {
			for t := range proj {
				code = zm.DecodeInto(code, proj[t])
			}
		})
		tr.around("multiprobe.gen", root, qi, func() {
			for t := range proj {
				multiprobe.ZMProbesInto(&mp, zm, proj[t], probes)
			}
		})
		ids32 := make([]int32, len(idsList))
		for i, id := range idsList {
			ids32[i] = int32(id)
		}
		dists := make([]float64, len(ids32))
		rowBytes := 4 * d
		tr.around("vec.scan", root, qi, func() {
			if qm != nil {
				vec.SqDistToRowsSQ8(dists, qm, ids32, q)
			} else {
				vec.SqDistToRows(dists, in.rows, d, ids32, q)
			}
		})
		if qm != nil {
			rowBytes = d
		}
		scanBytes += float64(len(ids32) * rowBytes)
		keep := k
		if qm != nil {
			keep = k * rerank
		}
		var best []topk.Item
		tr.around("topk.select", root, qi, func() {
			h := topk.New(keep)
			for i, dd := range dists {
				h.Push(int(ids32[i]), dd)
			}
			best = h.Sorted()
		})
		short := make([]int32, 0, k*rerank)
		for i := 0; i < len(best) && i < k*rerank; i++ {
			short = append(short, int32(best[i].ID))
		}
		// The f32 scan is already exact; its re-rank row times the same
		// kernel over the shortlist SQ8 would re-rank.
		exact := make([]float64, len(short))
		tr.around("vec.rerank", root, qi, func() { vec.SqDistToRows(exact, in.rows, d, short, q) })

		body := queryBody(q, k)
		tr.around("server.handler", root, qi, func() {
			w := httptest.NewRecorder()
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		})
		var rtErr error
		tr.around("net.rtt", root, qi, func() { _, rtErr = direct.post(in.direct+"/query", body) })
		if rtErr != nil {
			r.gate.fail("direct query: %v", rtErr)
		}
		tr.around("router.route", root, qi, func() { fanout += float64(len(in.route.ShardsFor(q, in.spill))) })
		var res *router.Result
		tr.around("router.query", root, qi, func() {
			res, rtErr = in.rt.QueryPlan(context.Background(), q, k, in.spill, httpx.QueryPlan{}, false)
		})
		if rtErr == nil {
			q := queryReply{Candidates: res.Candidates, Partial: res.Partial}
			for _, nb := range res.Neighbors {
				q.Neighbors = append(q.Neighbors, neighbor{ID: nb.ID, Dist: nb.Dist})
			}
			rtErr = checkReply(q, k, math.MaxInt)
		}
		if rtErr != nil {
			r.gate.fail("in-process router query %d: %v", qi, rtErr)
		}
		r.gate.add(1, 0)
		tr.end(root)
	}
	after, err := statAll(in.servers)
	if err != nil {
		return err
	}
	nq := float64(len(in.queries))

	// /batch through the in-process handler, one worker, so the codec
	// share per query is the handler time minus the queries' own time.
	const batch = 100
	vs := in.queries
	if len(vs) > batch {
		vs = vs[:batch]
	}
	body := batchBody(vs, k, 1)
	var batchUs []float64
	for rep := 0; rep < 5; rep++ {
		t := time.Now()
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(body)))
		batchUs = append(batchUs, float64(time.Since(t))/1e3)
		if w.Code != http.StatusOK {
			r.gate.fail("in-process /batch: %d", w.Code)
		}
	}
	var queriesUs float64
	for _, v := range vs {
		t := time.Now()
		in.ix.QueryPlan(v, core.Plan{K: k})
		queriesUs += float64(time.Since(t)) / 1e3
	}

	us := tr.meanUs
	query, gather := us("core.query"), us("core.gather")
	route := us("rptree.leaf")
	project, decodeUs, gen := us("lshfunc.project"), us("lattice.decode"), us("multiprobe.gen")
	scan, sel, rr := us("vec.scan"), us("topk.select"), us("vec.rerank")
	// The layers ix's own query passes through: a shard of a split index
	// has no level-1 tree (the router routes), and the SQ8 path re-ranks.
	ownRoute := route
	if in.ix.Tree() == nil {
		ownRoute = 0
	}
	lookup := gather - ownRoute - project - decodeUs - gen
	terms := []float64{ownRoute, project, decodeUs, gen, lookup, scan, sel}
	if qm != nil {
		terms = append(terms, rr)
	}
	ratio := layerSumRatio(query, terms...)
	r.metric("core.query_us", "us", query)
	r.metric("core.gather_us", "us", gather)
	r.metric("core.rank_us", "us", query-gather)
	r.metric("core.candidates_per_query", "count", cands/nq)
	r.metric("core.scanned_per_query", "count", scanned/nq)
	r.metric("core.dedup_ratio", "fraction", cands/scanned)
	r.metric("core.tables_probed", "count", tables/nq)
	r.metric("core.layer_sum_ratio", "fraction", ratio)
	r.metric("rptree.leaf_us", "us", route)
	r.metric("lshfunc.project_us", "us", project)
	r.metric("lattice.decode_us", "us", decodeUs)
	r.metric("multiprobe.gen_us", "us", gen)
	r.metric("multiprobe.probes_per_query", "count", probesN/nq)
	r.metric("lshtable.lookup_us", "us", lookup)
	r.metric("vec.scan_us", "us", scan)
	r.metric("vec.rerank_us", "us", rr)
	r.metric("vec.scan_bytes_per_query", "bytes", scanBytes/nq)
	r.metric("topk.select_us", "us", sel)
	handler := us("server.handler")
	r.metric("server.handler_us", "us", handler)
	r.metric("server.codec_us", "us", handler-query)
	r.metric("server.batch_codec_us_per_query", "us", (median(batchUs)-queriesUs)/float64(len(vs)))
	rtt := us("net.rtt")
	r.metric("net.loopback_us", "us", rtt-handler)
	rq, rroute := us("router.query"), us("router.route")
	r.metric("router.query_us", "us", rq)
	r.metric("router.route_us", "us", rroute)
	r.metric("router.fanout_per_query", "count", fanout/nq)
	r.metric("router.shard_request_us", "us", rtt)
	r.metric("router.overhead_us", "us", rq-rtt)
	r.metric("router.codec_us", "us", rq-rtt-rroute)
	// Two server-side passes per query: the direct request and the
	// router's request.
	r.metric("mmap.minflt_per_query", "count", float64(after.minflt-before.minflt)/nq/2)
	r.metric("mmap.majflt_per_query", "count", float64(after.majflt-before.majflt)/nq/2)
	selfs := selfTimes(tr.spans)
	var harness time.Duration
	for i, s := range tr.spans {
		if s.name == "probe" {
			harness += selfs[i]
		}
	}
	r.note("trace_harness_self_us_per_query", float64(harness)/nq/1e3)
	r.note("spans", len(tr.spans))
	// What core.query spends outside the timed layers (negative when the
	// separately timed calls cost more than the fused query path).
	r.note("layer_gap_us", query*(1-ratio))
	return r.ownedDurable(in)
}

// counters reads named counters from this process's metrics registry.
func counters(names ...string) map[string]float64 {
	out := map[string]float64{}
	for _, p := range metrics.Default().Snapshot() {
		for _, n := range names {
			if p.Name == n && p.Value != nil {
				out[n] += *p.Value
			}
		}
	}
	return out
}

// ownedDurable exercises the durable layer in-process on the workload's
// own base and dimension: appends to a benchmark-owned WAL, then inserts
// into a benchmark-owned durable index (fsync always, memtable 256) up to
// four frozen segments, queries the overlay, and checkpoints while
// inserts continue.
func (r *run) ownedDurable(in layerInputs) error {
	k, d := r.cfg.K, in.ix.Dim()
	const walName, appendsN = "owned.wal", 300
	names := []string{"bilsh_wal_appends_total", "bilsh_wal_syncs_total", "bilsh_wal_bytes_total", "bilsh_durable_checkpoints_total"}
	c0 := counters(names...)
	w, err := durable.CreateWAL(r.path(walName), durable.Header{Gen: 1, BaseN: uint64(in.owned.N()), Dim: d}, durable.WALConfig{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	tr := newTracer()
	for i := 0; i < appendsN; i++ {
		v := in.fresh[i%len(in.fresh)]
		var aerr error
		tr.around("durable.wal_append", -1, i, func() {
			seq, err := w.AppendInsert(v)
			if err == nil {
				err = w.Commit(seq)
			}
			aerr = err
		})
		if aerr != nil {
			w.Close()
			return aerr
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	c1 := counters(names...)
	appends := c1["bilsh_wal_appends_total"] - c0["bilsh_wal_appends_total"]
	r.metric("durable.wal_append_us", "us", tr.meanUs("durable.wal_append"))
	r.metric("durable.syncs_per_append", "count", (c1["bilsh_wal_syncs_total"]-c0["bilsh_wal_syncs_total"])/appends)
	r.metric("durable.wal_bytes_per_insert", "bytes", (c1["bilsh_wal_bytes_total"]-c0["bilsh_wal_bytes_total"])/appends)

	// Clean-base query time on the overlay's queries, right before the
	// overlay exists.
	qs := in.queries
	if len(qs) > 100 {
		qs = qs[:100]
	}
	clean := timeQueries(in.owned, qs, k)
	di, err := core.OpenDurable(r.path("owned-durable"), core.DurableOptions{
		Base: in.owned, Fsync: durable.FsyncAlways, MemtableThreshold: 256,
	})
	if err != nil {
		return err
	}
	defer di.Close()
	var insMs []float64
	next := 0
	insert := func() (float64, error) {
		t := time.Now()
		_, err := di.Insert(in.fresh[next%len(in.fresh)])
		next++
		ms := float64(time.Since(t)) / 1e6
		insMs = append(insMs, ms)
		return ms, err
	}
	for i := 0; i < 4*256+100; i++ { // four frozen segments plus an open memtable
		if _, err := insert(); err != nil {
			return err
		}
	}
	r.metric("core.overlay_query_us", "us", timeQueries(di.Index, qs, k)-clean)

	ck0 := counters(names...)["bilsh_durable_checkpoints_total"]
	done := make(chan time.Duration, 1)
	start := time.Now()
	go func() {
		di.Checkpoint() //nolint:errcheck // a failed checkpoint shows as a zero count
		done <- time.Since(start)
	}()
	var ckDur time.Duration
	stall := 0.0
	for waiting := true; waiting; {
		select {
		case ckDur = <-done:
			waiting = false
		default:
			ms, err := insert()
			if err != nil {
				return err
			}
			stall = math.Max(stall, ms)
		}
	}
	ck := counters(names...)["bilsh_durable_checkpoints_total"] - ck0
	if ck < 1 {
		r.gate.fail("owned durable checkpoint did not complete")
	}
	r.metric("durable.checkpoint_ms", "ms", float64(ckDur)/1e6)
	r.metric("durable.checkpoints", "count", ck)
	r.metric("durable.insert_stall_ms", "ms", stall)
	sum, err := summarize(insMs)
	if err != nil {
		return err
	}
	r.metric("durable.insert_p50_ms", "ms", sum.P50)
	r.metric("durable.insert_tail_ms", "ms", sum.Tail)
	r.note("owned_inserts", sum)
	return nil
}

// timeQueries is the mean QueryPlan time in µs over qs.
func timeQueries(ix *core.Index, qs [][]float32, k int) float64 {
	t := time.Now()
	for _, q := range qs {
		ix.QueryPlan(q, core.Plan{K: k})
	}
	return float64(time.Since(t)) / 1e3 / float64(len(qs))
}

// loadIndex reads a persisted heap index.
func loadIndex(path string) (*core.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.ReadIndex(f)
}

// scatterRouter is a one-shard router over url: the router layer's
// cost on a deployment that has no router of its own.
func scatterRouter(url string) (*router.Router, error) {
	m, err := router.ScatterMap(1)
	if err != nil {
		return nil, err
	}
	return router.New(router.Options{
		Map: m, Shards: []router.ShardSet{{Addrs: []string{url}}}, Spill: 1,
		Client: &http.Client{Transport: &http.Transport{Proxy: nil}},
	})
}

// treeMap is a two-shard leaf map over tree, for router.route_us on a
// deployment without a shard map of its own.
func treeMap(ix *core.Index) (*router.ShardMap, error) {
	sizes := make([]int, ix.NumGroups())
	for g := range sizes {
		sizes[g] = ix.GroupSize(g)
	}
	return router.NewShardMap(ix.Tree(), router.AssignLeaves(sizes, 2), 2)
}

// freshRows draws rows for the owned durable exercise from the
// workload's model.
func (r *run) freshRows(n int) [][]float32 {
	return rowsOf(r.model.rows(n), r.wl.Dim, n)
}

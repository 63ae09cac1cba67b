package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// shardedDeploy is the running online-sharded cluster.
type shardedDeploy struct {
	shards []*proc
	router *proc
}

func (d shardedDeploy) all() []*proc { return append(append([]*proc(nil), d.shards...), d.router) }

// onlineSharded: build, split into shards, build each shard as a paged
// SQ8 disk index, serve each under a row-residency budget, front them
// with a router, and drive /query closed loop on every connection.
func (r *run) onlineSharded() error {
	wl, k := r.wl, r.cfg.K
	ds := r.generate()
	basePath, _, err := r.writeInputs(ds)
	if err != nil {
		return err
	}
	truth := bruteForce(ds.base, ds.d, rowsOf(ds.queries, ds.d, wl.TruthQueries), k, procs())
	r.recordTruth(truth)

	full, shardDir := r.path("full.bilsh"), r.path("shards")
	shardFile := func(i int, ext string) string { return fmt.Sprintf("%s/shard%d%s", shardDir, i, ext) }
	var dep shardedDeploy
	serve := func() ([]*proc, error) {
		dep = shardedDeploy{}
		var addrs []string
		for i := 0; i < wl.Shards; i++ {
			fi, err := os.Stat(shardFile(i, ".fvecs"))
			if err != nil {
				return nil, err
			}
			rows := fi.Size() / int64(4+4*wl.Dim)
			budget := int64(wl.RowsBudgetFrac * float64(rows*int64(4*wl.Dim)))
			p, err := r.start(fmt.Sprintf("shard%d", i), "shard-serve", "-index", shardFile(i, ".disk"),
				"-shard-id", strconv.Itoa(i), "-idmap", shardFile(i, ".ids"),
				"-rows-budget", strconv.FormatInt(budget, 10), "-residency-interval", "1s", "-addr", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			dep.shards = append(dep.shards, p)
			addrs = append(addrs, p.url)
		}
		p, err := r.start("router", "router", "-map", shardDir+"/shardmap.bin", "-shards", strings.Join(addrs, ";"),
			"-spill", strconv.Itoa(wl.Spill), "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		dep.router = p
		return dep.all(), nil
	}
	r.progress("inputs and truth ready")
	ps, err := r.setupMedian(r.setupReps(), func() ([]*proc, error) {
		os.RemoveAll(shardDir)
		if err := r.bilshRun(append([]string{"build", "-data", basePath, "-out", full}, wl.Build...)...); err != nil {
			return nil, err
		}
		if err := r.bilshRun("shard-split", "-index", full, "-out", shardDir, "-shards", strconv.Itoa(wl.Shards)); err != nil {
			return nil, err
		}
		// The shard builds are independent; run them side by side.
		errs := make([]error, wl.Shards)
		var wg sync.WaitGroup
		for i := 0; i < wl.Shards; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = r.bilshRun(append([]string{"build", "-data", shardFile(i, ".fvecs"), "-out", shardFile(i, ".disk")}, wl.ShardBuild...)...)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return serve()
	})
	if err != nil {
		return err
	}

	bodies := make([][]byte, ds.nq())
	for i := range bodies {
		bodies[i] = queryBody(ds.query(i), k)
	}
	recall := make(map[int]float64)
	var mu sync.Mutex
	query := func(c *conn, j job) bool {
		reply, err := c.post(dep.router.url+"/query", bodies[j.arg])
		var q queryReply
		if err == nil {
			q, err = decode[queryReply](reply)
		}
		if err == nil {
			err = checkReply(q, k, ds.n())
		}
		if err == nil && j.arg%10 == 0 {
			err = checkDists(q, ds.query(j.arg), ds.row)
		}
		if err != nil {
			r.gate.fail("query %d: %v", j.arg, err)
			return false
		}
		if j.arg < len(truth) {
			mu.Lock()
			recall[j.arg] = recallAt(ids(q.Neighbors), truth[j.arg])
			mu.Unlock()
		}
		return true
	}
	conns := make([]*conn, wl.Connections)
	for i := range conns {
		conns[i] = newConn()
		defer conns[i].close()
	}
	// Warm-up: every query once, closed loop on one connection.
	for i := 0; i < ds.nq(); i++ {
		query(conns[0], job{arg: i})
	}

	if r.trace {
		return r.traceSharded(ds, dep, query, conns)
	}
	// Every connection closed loop for the whole run: two callers that
	// each wait for their reply. An open loop at a fixed rate let
	// hypervisor steal on a small shared host queue up into the latency
	// figures (spreads of 0.4 across seeds).
	var ss []sample
	start := time.Now()
	if err := r.watch(ps, func() int {
		ss = closedConns(r.seconds, conns, func(c *conn, i int) bool { return query(c, job{arg: i % ds.nq()}) })
		return len(ss)
	}); err != nil {
		return err
	}
	r.metric("qps", "queries/s", float64(okCount(ss))/time.Since(start).Seconds())
	if err := r.latencyMetrics(ss, 1); err != nil {
		return err
	}
	r.detail.Fingerprint.LoadgenLateMs = lateMs(ss)
	if err := r.recallMetric(recall, len(truth)); err != nil {
		return err
	}

	if _, err = r.recoverMedian(ps, serve); err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		if !query(conns[0], job{arg: i}) {
			r.gate.fail("no correct answer after restart")
			break
		}
	}
	return r.checkMetrics()
}

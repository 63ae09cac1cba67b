package main

import (
	"fmt"
	"time"
)

// knnBatch: one `bilsh serve` over a multiprobe index, driven closed
// loop by one connection sending /batch requests of wl.Batch queries.
func (r *run) knnBatch() error {
	wl, k := r.wl, r.cfg.K
	ds := r.generate()
	basePath, _, err := r.writeInputs(ds)
	if err != nil {
		return err
	}
	truth := bruteForce(ds.base, ds.d, rowsOf(ds.queries, ds.d, wl.TruthQueries), k, procs())
	r.recordTruth(truth)

	index := r.path("index.bilsh")
	serve := func() ([]*proc, error) {
		p, err := r.start("serve", "serve", "-index", index, "-addr", "127.0.0.1:0")
		return []*proc{p}, err
	}
	r.progress("inputs and truth ready")
	ps, err := r.setupMedian(r.setupReps(), func() ([]*proc, error) {
		if err := r.bilshRun(append([]string{"build", "-data", basePath, "-out", index}, wl.Build...)...); err != nil {
			return nil, err
		}
		return serve()
	})
	if err != nil {
		return err
	}

	// Batch b holds queries [b*B, (b+1)*B); bodies are encoded up front
	// so the generator spends no CPU on JSON while measuring.
	nb := ds.nq() / wl.Batch
	bodies := make([][]byte, nb)
	for b := range bodies {
		bodies[b] = batchBody(rowsOf(ds.queries[b*wl.Batch*ds.d:], ds.d, wl.Batch), k, wl.BatchWorkers)
	}
	url := ps[0].url + "/batch"
	c := newConn()
	defer c.close()
	recall := make(map[int]float64) // send runs on one goroutine
	send := func(b int) bool {
		reply, err := c.post(url, bodies[b])
		if err == nil {
			var br batchReply
			if br, err = decode[batchReply](reply); err == nil && len(br.Results) != wl.Batch {
				err = fmt.Errorf("%d results for %d queries", len(br.Results), wl.Batch)
			}
			for i := 0; err == nil && i < len(br.Results); i++ {
				qi := b*wl.Batch + i
				if err = checkReply(br.Results[i], k, ds.n()); err == nil && i%10 == 0 {
					err = checkDists(br.Results[i], ds.query(qi), ds.row)
				}
				if err == nil && qi < len(truth) {
					recall[qi] = recallAt(ids(br.Results[i].Neighbors), truth[qi])
				}
			}
		}
		if err != nil {
			r.gate.fail("batch %d: %v", b, err)
			return false
		}
		return true
	}
	// Warm-up: one pass over every batch (caches filled, lazy set-up done).
	for b := range bodies {
		send(b)
	}

	if r.trace {
		return r.traceKnnBatch(ds, ps, send, index)
	}
	var ss []sample
	start := time.Now()
	if err := r.watch(ps, func() int {
		ss = closed(r.seconds, func(i int) bool { return send(i % nb) })
		return len(ss) * wl.Batch
	}); err != nil {
		return err
	}
	r.metric("qps", "queries/s", float64(okCount(ss)*wl.Batch)/time.Since(start).Seconds())
	r.detail.Fingerprint.LoadgenLateMs = lateMs(ss)
	if err := r.latencyMetrics(ss, wl.Batch); err != nil {
		return err
	}
	if err := r.recallMetric(recall, len(truth)); err != nil {
		return err
	}
	if ps, err = r.recoverMedian(ps, serve); err != nil {
		return err
	}
	url = ps[0].url + "/batch"
	if !send(0) {
		r.gate.fail("no correct answer after restart")
	}
	return r.checkMetrics()
}

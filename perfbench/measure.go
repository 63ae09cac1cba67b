package main

import (
	"fmt"
	"time"
)

// Measurement helpers shared by the workloads.

func (r *run) setupReps() int {
	if r.trace {
		return 1
	}
	return 3
}

func okCount(ss []sample) int {
	ok := 0
	for _, s := range ss {
		if s.ok {
			ok++
		}
	}
	return ok
}

// latencyMetrics reports query_p50_ms and query_tail_ms over ss and
// counts its attempts and failures; perRequest is the number of queries
// a request carries.
func (r *run) latencyMetrics(ss []sample, perRequest int) error {
	sortSamples(ss)
	var ms []float64
	for _, s := range ss {
		if s.ok {
			ms = append(ms, s.latencyMs())
		}
	}
	r.gate.add(len(ss)*perRequest, (len(ss)-len(ms))*perRequest)
	sum, err := summarize(ms)
	if err != nil {
		return err
	}
	r.detail.Latency["query"] = sum
	tail, err := windowedTail(ms)
	if err != nil {
		return err
	}
	r.metric("query_p50_ms", "ms", sum.P50)
	r.metric("query_tail_ms", "ms", tail)
	return nil
}

// watch runs the measured phase fn, which returns the operations it
// completed, and reports rss_mib (the median of the servers' summed
// VmRSS, sampled every 200ms) and cpu_ms_per_op (the servers' CPU time
// over the phase per operation).
func (r *run) watch(ps []*proc, fn func() int) error {
	before, err := statAll(ps)
	if err != nil {
		return err
	}
	total0, steal0 := cpuTimes()
	stop := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		var rss []float64
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				samples <- rss
				return
			case <-tick.C:
				if v, err := rssMiB(ps); err == nil {
					rss = append(rss, v)
				}
			}
		}
	}()
	r.progress("warmed up")
	ops := fn()
	r.progress("measured")
	close(stop)
	rss := <-samples
	if total1, steal1 := cpuTimes(); total1 > total0 {
		r.detail.Fingerprint.StealFrac = float64(steal1-steal0) / float64(total1-total0)
	}
	after, err := statAll(ps)
	if err != nil {
		return err
	}
	if len(rss) == 0 {
		return fmt.Errorf("no VmRSS samples during the measured phase")
	}
	r.metric("rss_mib", "MiB", median(rss))
	cpuMs := float64(after.cpuTicks-before.cpuTicks) * 1000 / clockTick
	r.metric("cpu_ms_per_op", "ms", cpuMs/float64(max(ops, 1)))
	return nil
}

// recallMetric reports the mean recall over the truth queries and
// enforces the workload's floor.
func (r *run) recallMetric(recall map[int]float64, want int) error {
	if len(recall) != want {
		return fmt.Errorf("recall measured on %d of %d truth queries", len(recall), want)
	}
	var sum float64
	for _, v := range recall {
		sum += v
	}
	mean := sum / float64(len(recall))
	if mean < r.wl.RecallFloor {
		r.gate.fail("recall@%d %.4f below the workload floor %.2f", r.cfg.K, mean, r.wl.RecallFloor)
	}
	if !r.trace {
		r.metric("recall_at_10", "fraction", mean)
	}
	return nil
}

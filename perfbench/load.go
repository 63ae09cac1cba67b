package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// conn is one client connection: an HTTP client whose transport keeps
// at most one connection open, so the connection count is exact.
type conn struct {
	hc *http.Client
}

func newConn() *conn {
	tr := &http.Transport{Proxy: nil, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &conn{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (c *conn) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// post sends body and returns the reply body of a 200 response.
func (c *conn) post(url string, body []byte) ([]byte, error) {
	resp, err := c.hc.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %d: %s", url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// neighbor, queryReply and batchReply mirror the server's JSON.
type neighbor struct {
	ID   int     `json:"id"`
	Dist float64 `json:"dist"`
}

type queryReply struct {
	Neighbors  []neighbor `json:"neighbors"`
	Candidates int        `json:"candidates"`
	Partial    bool       `json:"partial"`
}

type batchReply struct {
	Results []queryReply `json:"results"`
}

// appendVector appends v as a JSON array with shortest round-trip floats.
func appendVector(b []byte, v []float32) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, float64(x), 'g', -1, 32)
	}
	return append(b, ']')
}

func queryBody(v []float32, k int) []byte {
	b := append([]byte(`{"k":`), strconv.Itoa(k)...)
	b = append(b, `,"vector":`...)
	b = appendVector(b, v)
	return append(b, '}')
}

func batchBody(vs [][]float32, k, workers int) []byte {
	b := fmt.Appendf(nil, `{"k":%d,"workers":%d,"vectors":[`, k, workers)
	for i, v := range vs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendVector(b, v)
	}
	return append(b, "]}"...)
}

// checkReply enforces the reply gate: k neighbours (fewer only when the
// reply reports fewer than k candidates, an LSH miss that recall
// counts), distinct ids in [0, maxID), finite non-negative distances in
// ascending order, and a complete (non-partial) answer.
func checkReply(q queryReply, k, maxID int) error {
	if q.Partial {
		return fmt.Errorf("partial reply")
	}
	if want := min(k, max(q.Candidates, 0)); len(q.Neighbors) != k && len(q.Neighbors) != want {
		return fmt.Errorf("%d neighbours from %d candidates, want %d", len(q.Neighbors), q.Candidates, k)
	}
	seen := make(map[int]bool, k)
	for i, nb := range q.Neighbors {
		if nb.ID < 0 || nb.ID >= maxID {
			return fmt.Errorf("id %d out of range [0,%d)", nb.ID, maxID)
		}
		if seen[nb.ID] {
			return fmt.Errorf("id %d returned twice", nb.ID)
		}
		seen[nb.ID] = true
		if math.IsNaN(nb.Dist) || math.IsInf(nb.Dist, 0) || nb.Dist < 0 {
			return fmt.Errorf("bad distance %v", nb.Dist)
		}
		if i > 0 && nb.Dist < q.Neighbors[i-1].Dist {
			return fmt.Errorf("distances not ascending at rank %d", i)
		}
	}
	return nil
}

// checkDists recomputes the first and last returned distance from the
// benchmark's own copy of the vectors.
func checkDists(q queryReply, query []float32, row func(id int) []float32) error {
	if len(q.Neighbors) == 0 {
		return nil
	}
	for _, i := range []int{0, len(q.Neighbors) - 1} {
		nb := q.Neighbors[i]
		want := sqDist(query, row(nb.ID))
		if math.Abs(nb.Dist-want) > 1e-3*math.Max(1, want) {
			return fmt.Errorf("id %d: server distance %g, recomputed %g", nb.ID, nb.Dist, want)
		}
	}
	return nil
}

func ids(nbs []neighbor) []int {
	out := make([]int, len(nbs))
	for i, nb := range nbs {
		out[i] = nb.ID
	}
	return out
}

// job is one request to send; arg picks its query or batch.
type job struct {
	arg int
}

// sample is one completed request.
type sample struct {
	job
	sched, sent, done time.Time
	late              time.Duration
	ok                bool
}

// latencyMs is the request's latency from its scheduled send.
func (s sample) latencyMs() float64 { return float64(s.done.Sub(s.sched)) / 1e6 }

// lateMs is the p99 (or highest percentile with ten samples beyond) of
// the generator's own lateness, in ms.
func lateMs(ss []sample) float64 {
	var xs []float64
	for _, s := range ss {
		xs = append(xs, float64(s.late)/1e6)
	}
	sum, err := summarize(xs)
	if err != nil {
		return math.NaN()
	}
	return sum.Tail
}

func decode[T any](b []byte) (T, error) {
	var v T
	err := json.Unmarshal(b, &v)
	return v, err
}

// sortSamples orders samples by scheduled send time.
func sortSamples(ss []sample) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].sched.Before(ss[j].sched) })
}

// closed sends request i back to back for d; its lateness is the
// generator's own gap between a reply and the next send.
func closed(d time.Duration, send func(i int) bool) []sample {
	var ss []sample
	start := time.Now()
	prev := start
	for i := 0; time.Since(start) < d; i++ {
		s := sample{job: job{arg: i}, sched: time.Now()}
		s.sent = s.sched
		s.late = s.sent.Sub(prev)
		s.ok = send(i)
		s.done = time.Now()
		prev = s.done
		ss = append(ss, s)
	}
	return ss
}

// closedConns runs closed on every connection at once for d; request i
// of connection c is number i*len(conns)+c.
func closedConns(d time.Duration, conns []*conn, send func(c *conn, i int) bool) []sample {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	for ci, c := range conns {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			ss := closed(d, func(i int) bool { return send(c, i*len(conns)+ci) })
			mu.Lock()
			out = append(out, ss...)
			mu.Unlock()
		}(ci, c)
	}
	wg.Wait()
	return out
}

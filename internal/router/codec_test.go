package router_test

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bilsh/internal/httpx"
	"bilsh/internal/metrics"
	"bilsh/internal/router"
)

// recordingShard answers every /query with an empty result and keeps the
// request bodies it saw.
type recordingShard struct {
	mu     sync.Mutex
	bodies []string
}

func (s *recordingShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b, _ := io.ReadAll(r.Body)
	s.mu.Lock()
	s.bodies = append(s.bodies, string(b))
	s.mu.Unlock()
	httpx.WriteJSON(w, http.StatusOK, map[string]interface{}{"neighbors": []int{}})
}

func (s *recordingShard) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bodies
	s.bodies = nil
	return b
}

// TestRouterForwardsVectorText pins the shard request body: the client's
// vector text verbatim when the router decoded it on the fast path, and
// encoding/json's bytes for the same request otherwise.
func TestRouterForwardsVectorText(t *testing.T) {
	shard := &recordingShard{}
	shardSrv := httptest.NewServer(shard)
	t.Cleanup(shardSrv.Close)
	smap, err := router.ScatterMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := router.New(router.Options{
		Map: smap, Shards: []router.ShardSet{{Addrs: []string{shardSrv.URL}}},
		Registry: metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rtSrv := httptest.NewServer(rt.Handler())
	t.Cleanup(rtSrv.Close)
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(rtSrv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, resp.StatusCode, b)
		}
	}
	expect := func(want ...string) {
		t.Helper()
		got := shard.take()
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("shard bodies:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}

	post("/query", `{"vector":[ 0.10 ,1e-7,-0, 3.4e38 ],"k":3,"probes":2}`)
	expect(`{"vector":[ 0.10 ,1e-7,-0, 3.4e38 ],"k":3,"probes":2}`)

	post("/batch", `{"vectors":[[1.50,2],[ 3 ]],"k":4,"recall":0.9}`)
	expect(`{"vector":[1.50,2],"k":4,"recall":0.9}`, `{"vector":[ 3 ],"k":4,"recall":0.9}`)

	// An escaped key takes encoding/json's path: the vector is re-encoded.
	post("/query", `{"vect\u006fr":[0.10,1e-7],"k":3}`)
	expect(`{"vector":[0.1,1e-7],"k":3}`)

	// The exported []float32 entry point writes what json.Marshal would.
	v := []float32{0.1, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, 1e21, math.MaxFloat32}
	plan := httpx.QueryPlan{TargetRecall: 0.95, Tables: 2, MaxCandidates: 100}
	if _, err := rt.QueryPlan(context.Background(), v, 5, 0, plan, false); err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(struct {
		Vector []float32 `json:"vector"`
		K      int       `json:"k"`
		httpx.QueryPlan
	}{v, 5, plan})
	if err != nil {
		t.Fatal(err)
	}
	expect(string(want))

	// A vector JSON cannot carry fails every shard without a request.
	res, err := rt.QueryPlan(context.Background(), []float32{float32(math.NaN())}, 5, 0, httpx.QueryPlan{}, false)
	if err != nil || !res.Partial || len(res.FailedShards) != 1 {
		t.Fatalf("NaN vector: %+v, %v; want a partial result with the shard failed", res, err)
	}
	expect()
}

// TestTrailingDataRejectedOnBothTiers pins that a body continuing past
// its JSON value is a 400 from a shard server and from the router alike.
func TestTrailingDataRejectedOnBothTiers(t *testing.T) {
	train := testData(t, 400, 8)
	c := leafCluster(t, train, false, nil)
	rtSrv := httptest.NewServer(c.rt.Handler())
	t.Cleanup(rtSrv.Close)
	vec := `[0,0,0,0,0,0,0,0]`
	cases := []struct{ path, body string }{
		{"/query", `{"vector":` + vec + `,"k":3} garbage`},
		{"/query", `{"vector":` + vec + `,"k":3}{"k":4}`},
		{"/batch", `{"vectors":[` + vec + `],"k":3}]`},
	}
	for _, tc := range cases {
		for _, base := range []string{c.servers[0].URL, rtSrv.URL} {
			resp, err := http.Post(base+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "trailing data") {
				t.Errorf("%s%s %s: %d %s, want 400 trailing data", base, tc.path, tc.body, resp.StatusCode, b)
			}
		}
	}
}

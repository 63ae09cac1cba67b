package httpx

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// edgeBodies are request bodies at the decoder's edges: signed zero,
// float32 underflow, the top of the float32 range and just past it, the
// exponent-form thresholds, whitespace inside arrays, and escaped keys.
var edgeBodies = []string{
	`{"vector":[-0],"k":1}`,
	`{"vector":[1e-46]}`,
	`{"vector":[3.4e38]}`,
	`{"vector":[1e39]}`,
	`{"vector":[1e-7]}`,
	`{"vector":[1e21]}`,
	`{"vector":[ 1 ,` + "\n\t" + `2 ]}`,
	`{"vectors":[ [ 1 , 2 ] , [3,4]` + "\r\n" + `],"workers":2}`,
	`{"vector":[1],"k":2}`,
	`{"k":3} garbage`,
	`{"k":3}{"k":4}`,
	`{"vector":[1],"spill":2,"recall":0.5,"probes":8,"tables":4,"hier_min":20,"rerank":6,"stable_probes":16,"max_candidates":1000}`,
}

// seedBodies returns edgeBodies plus a body carrying the k of each
// decodePlanRequestCases row.
func seedBodies() []string {
	seeds := append([]string(nil), edgeBodies...)
	for _, tc := range decodePlanRequestCases {
		b, err := json.Marshal(map[string]int{"k": tc.k})
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, string(b))
	}
	return seeds
}

// FuzzParseQuery checks ParseQuery against encoding/json: a body it
// accepts, encoding/json accepts with bit-identical float32s and equal
// ints, and a body encoding/json rejects, it declines.
func FuzzParseQuery(f *testing.F) {
	for _, b := range seedBodies() {
		f.Add([]byte(b))
	}
	for _, tc := range applyQueryParamsCases {
		b, err := json.Marshal(tc.body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkParseQuery(t, body)
	})
}

// FuzzDecodePlanRequest runs a body and a URL query string through the
// /query decoding pipeline: it must never panic, and every plan it
// accepts must pass Validate with k in [1, MaxK].
func FuzzDecodePlanRequest(f *testing.F) {
	bodies := seedBodies()
	queries := []string{""}
	for _, tc := range applyQueryParamsCases {
		queries = append(queries, tc.query)
	}
	for _, tc := range decodePlanRequestCases {
		if _, q, ok := strings.Cut(tc.target, "?"); ok {
			queries = append(queries, q)
		}
	}
	for i, b := range bodies {
		f.Add([]byte(b), queries[i%len(queries)])
	}
	for i, q := range queries {
		f.Add([]byte(bodies[i%len(bodies)]), q)
	}
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		var req struct {
			Vector []float32 `json:"vector"`
			K      int       `json:"k"`
			QueryPlan
		}
		r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
		r.URL.RawQuery = query
		rec := httptest.NewRecorder()
		if !DecodeQuery(rec, r, 1<<20, QueryFields{Vector: &req.Vector, K: &req.K, Plan: &req.QueryPlan}, &req) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("decode failure answered %d", rec.Code)
			}
			return
		}
		k, ok := DecodePlanRequest(rec, r, req.K, &req.QueryPlan)
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("plan failure answered %d", rec.Code)
			}
			return
		}
		if err := req.QueryPlan.Validate(); err != nil {
			t.Fatalf("accepted plan %+v fails Validate: %v", req.QueryPlan, err)
		}
		if k < 1 || k > MaxK {
			t.Fatalf("accepted k %d outside [1, %d]", k, MaxK)
		}
	})
}

package httpx

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// applyQueryParamsCases is TestApplyQueryParams' table; the fuzz targets
// seed their corpora from it.
var applyQueryParamsCases = []struct {
	name    string
	body    QueryPlan // as if decoded from the JSON body
	query   string
	want    QueryPlan
	wantErr string
}{
	{name: "empty", query: "", want: QueryPlan{}},
	{
		name:  "all params",
		query: "recall=0.9&probes=8&tables=4&hier_min=20&rerank=6&stable_probes=16&max_candidates=1000",
		want: QueryPlan{
			TargetRecall: 0.9, Probes: 8, Tables: 4, HierMinCandidates: 20,
			RerankFactor: 6, StableProbes: 16, MaxCandidates: 1000,
		},
	},
	{
		name:  "url overrides body",
		body:  QueryPlan{TargetRecall: 0.5, Probes: 2, Tables: 9},
		query: "recall=0.9&probes=8",
		want:  QueryPlan{TargetRecall: 0.9, Probes: 8, Tables: 9},
	},
	{
		name:  "unrecognized params ignored",
		query: "stats=1&spill=3&k=5",
		want:  QueryPlan{},
	},
	{name: "garbage recall", query: "recall=high", wantErr: "recall"},
	{name: "garbage probes", query: "probes=many", wantErr: "probes"},
	{name: "float tables", query: "tables=1.5", wantErr: "tables"},
	{name: "garbage stable_probes", query: "stable_probes=x", wantErr: "stable_probes"},
}

func TestApplyQueryParams(t *testing.T) {
	for _, tc := range applyQueryParamsCases {
		t.Run(tc.name, func(t *testing.T) {
			vals, err := url.ParseQuery(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			p := tc.body
			err = p.ApplyQueryParams(vals)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("ApplyQueryParams(%q) = %v, want error mentioning %q", tc.query, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("ApplyQueryParams(%q): %v", tc.query, err)
			}
			if p != tc.want {
				t.Fatalf("ApplyQueryParams(%q) = %+v, want %+v", tc.query, p, tc.want)
			}
		})
	}
}

func TestQueryPlanValidate(t *testing.T) {
	big := PlanLimit + 1
	cases := []struct {
		p    QueryPlan
		want string // "" = valid
	}{
		{QueryPlan{}, ""},
		{QueryPlan{TargetRecall: 0.99, Probes: 8, Tables: 4, HierMinCandidates: 1, RerankFactor: 1, StableProbes: 1, MaxCandidates: 1}, ""},
		{QueryPlan{TargetRecall: 1}, "recall"},
		{QueryPlan{TargetRecall: -0.5}, "recall"},
		{QueryPlan{TargetRecall: math.NaN()}, "recall"},
		{QueryPlan{Probes: -1}, "probes"},
		{QueryPlan{Probes: big}, "probes"},
		{QueryPlan{Tables: -1}, "tables"},
		{QueryPlan{HierMinCandidates: big}, "hier_min"},
		{QueryPlan{RerankFactor: -1}, "rerank"},
		{QueryPlan{StableProbes: big}, "stable_probes"},
		{QueryPlan{MaxCandidates: -1}, "max_candidates"},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.p, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want error mentioning %q", tc.p, err, tc.want)
		}
	}
}

func TestNormalizeK(t *testing.T) {
	cases := []struct {
		k, want int
		wantErr bool
	}{
		{0, DefaultK, false},
		{1, 1, false},
		{MaxK, MaxK, false},
		{-1, 0, true},
		{MaxK + 1, 0, true},
	}
	for _, tc := range cases {
		got, err := NormalizeK(tc.k)
		if (err != nil) != tc.wantErr || got != tc.want {
			t.Errorf("NormalizeK(%d) = (%d, %v), want (%d, err=%v)", tc.k, got, err, tc.want, tc.wantErr)
		}
	}
}

// decodePlanRequestCases is TestDecodePlanRequestWrites400's table; the
// fuzz targets seed their corpora from it.
var decodePlanRequestCases = []struct {
	name   string
	k      int
	target string
	want   string
}{
	{"bad k", -3, "/query", "k -3"},
	{"huge k", MaxK + 1, "/query", "exceeds maximum"},
	{"garbage param", 5, "/query?probes=lots", "probes"},
	{"out of range param", 5, "/query?recall=2", "recall 2 outside"},
	{"NaN recall", 5, "/query?recall=NaN", "recall NaN outside"},
}

// TestDecodePlanRequestWrites400 pins the shared pipeline's error
// behavior: any invalid input draws a structured {"error": ...} 400 with
// the offending value echoed, which both tiers then share verbatim.
func TestDecodePlanRequestWrites400(t *testing.T) {
	for _, tc := range decodePlanRequestCases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest("POST", tc.target, nil)
			var p QueryPlan
			if _, ok := DecodePlanRequest(rec, r, tc.k, &p); ok {
				t.Fatal("DecodePlanRequest accepted an invalid request")
			}
			if rec.Code != 400 {
				t.Fatalf("status = %d, want 400", rec.Code)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("400 body is not JSON: %v (%q)", err, rec.Body.String())
			}
			if !strings.Contains(body.Error, tc.want) {
				t.Fatalf("400 error = %q, want mention of %q", body.Error, tc.want)
			}
		})
	}

	// The happy path folds URL params over the body plan and returns the
	// normalized k.
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("POST", "/query?recall=0.9&probes=8", nil)
	p := QueryPlan{Probes: 2, Tables: 3}
	k, ok := DecodePlanRequest(rec, r, 0, &p)
	if !ok || k != DefaultK {
		t.Fatalf("DecodePlanRequest = (%d, %v), want (%d, true)", k, ok, DefaultK)
	}
	if want := (QueryPlan{TargetRecall: 0.9, Probes: 8, Tables: 3}); p != want {
		t.Fatalf("plan = %+v, want %+v", p, want)
	}
}

func TestWantStats(t *testing.T) {
	cases := []struct {
		query string
		want  bool
	}{
		{"", false},
		{"stats=1", true},
		{"stats=true", true},
		{"stats=0", false},
		{"stats=false", false},
		{"stats=yes", false}, // not a strconv bool: treated as off, not an error
	}
	for _, tc := range cases {
		vals, _ := url.ParseQuery(tc.query)
		if got := WantStats(vals); got != tc.want {
			t.Errorf("WantStats(%q) = %v, want %v", tc.query, got, tc.want)
		}
	}
}

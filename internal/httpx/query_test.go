package httpx

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// fullRequest accepts every member ParseQuery knows; it is the
// encoding/json side of the differential tests.
type fullRequest struct {
	Vector  []float32   `json:"vector"`
	Vectors [][]float32 `json:"vectors"`
	K       int         `json:"k"`
	Spill   int         `json:"spill"`
	Workers int         `json:"workers"`
	QueryPlan

	text  []byte
	texts [][]byte
}

func (q *fullRequest) fields() QueryFields {
	return QueryFields{
		Vector: &q.Vector, VectorText: &q.text, Vectors: &q.Vectors, VectorsText: &q.texts,
		K: &q.K, Spill: &q.Spill, Workers: &q.Workers, Plan: &q.QueryPlan,
	}
}

// strictDecode decodes body by DecodeBody's rules and returns the 400
// error text, "" on success.
func strictDecode(body []byte, dst interface{}) string {
	rec := httptest.NewRecorder()
	if decodeStrict(rec, bytes.NewReader(body), dst) {
		return ""
	}
	return rec.Body.String()
}

// sameFloats reports whether a and b hold bit-identical values and agree
// on nil-ness.
func sameFloats(a, b []float32) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkParseQuery is the differential property: a body ParseQuery accepts
// is one encoding/json accepts, with bit-identical floats, equal ints,
// and vector texts that decode back to the same vectors. It returns
// whether ParseQuery accepted.
func checkParseQuery(t *testing.T, body []byte) bool {
	t.Helper()
	var fast fullRequest
	if !ParseQuery(body, fast.fields()) {
		if !reflect.DeepEqual(fast, fullRequest{}) {
			t.Fatalf("ParseQuery(%q) declined but wrote %+v", body, fast)
		}
		return false
	}
	var ref fullRequest
	if msg := strictDecode(body, &ref); msg != "" {
		t.Fatalf("ParseQuery accepted %q, encoding/json rejects it: %s", body, msg)
	}
	if fast.K != ref.K || fast.Spill != ref.Spill || fast.Workers != ref.Workers {
		t.Fatalf("%q: ints (%d,%d,%d), encoding/json (%d,%d,%d)",
			body, fast.K, fast.Spill, fast.Workers, ref.K, ref.Spill, ref.Workers)
	}
	if math.Float64bits(fast.TargetRecall) != math.Float64bits(ref.TargetRecall) {
		t.Fatalf("%q: recall %v, encoding/json %v", body, fast.TargetRecall, ref.TargetRecall)
	}
	fp, rp := fast.QueryPlan, ref.QueryPlan
	fp.TargetRecall, rp.TargetRecall = 0, 0
	if fp != rp {
		t.Fatalf("%q: plan %+v, encoding/json %+v", body, fast.QueryPlan, ref.QueryPlan)
	}
	if !sameFloats(fast.Vector, ref.Vector) {
		t.Fatalf("%q: vector %v, encoding/json %v", body, fast.Vector, ref.Vector)
	}
	if (fast.Vectors == nil) != (ref.Vectors == nil) || len(fast.Vectors) != len(ref.Vectors) {
		t.Fatalf("%q: vectors %v, encoding/json %v", body, fast.Vectors, ref.Vectors)
	}
	for i := range fast.Vectors {
		if !sameFloats(fast.Vectors[i], ref.Vectors[i]) {
			t.Fatalf("%q: vectors[%d] %v, encoding/json %v", body, i, fast.Vectors[i], ref.Vectors[i])
		}
	}
	texts := fast.texts
	if fast.Vector != nil {
		texts = append(texts, fast.text)
	}
	rows := append(append([][]float32(nil), fast.Vectors...), fast.Vector)
	for i, text := range texts {
		var back []float32
		if err := json.Unmarshal(text, &back); err != nil || !sameFloats(back, rows[i]) {
			t.Fatalf("%q: vector text %q decodes to %v (%v), want %v", body, text, back, err, rows[i])
		}
	}
	return true
}

func TestParseQueryMatchesEncodingJSON(t *testing.T) {
	cases := []struct {
		body   string
		accept bool
	}{
		{`{"vector":[1,2.5,-3],"k":5}`, true},
		{`{}`, true},
		{` { "vector" : [ 1 , 2 ] , "k" : 3 } ` + "\n\t\r", true},
		{`{"vector":[]}`, true},
		{`{"vectors":[[1,2],[3,4]],"k":2,"workers":3}`, true},
		{`{"vectors":[[],[1]]}`, true},
		{`{"vectors":[]}`, true},
		{`{"vector":[1],"spill":2,"recall":0.95,"probes":8,"tables":4,"hier_min":20,"rerank":6,"stable_probes":16,"max_candidates":1000}`, true},
		{`{"vector":[-0,0,-0.0,0e5]}`, true},
		{`{"vector":[1e-46,1e-45,1.4e-45,1e-40]}`, true},
		{`{"vector":[3.4e38,3.4028234663852886e38,-3.4e38]}`, true},
		{`{"vector":[1e-7,1e21,1E+21,123456789.123456789]}`, true},
		{`{"vector":[0.1,0.2,0.30000000000000004]}`, true},
		{`{"k":-0,"recall":1e-400}`, true},
		{`{"k":-5,"probes":-1}`, true},
		{`{"vector":[1e39]}`, false},
		{`{"vector":[-1e39]}`, false},
		{`{"recall":1e309}`, false},
		{`{"k":99999999999999999999}`, false},
		{`{"k":3.0}`, false},
		{`{"k":1e2}`, false},
		{`{"k":"3"}`, false},
		{`{"k":null}`, false},
		{`{"vector":null}`, false},
		{`{"vector":[1,null]}`, false},
		{`{"vectors":[null]}`, false},
		{`{"vector":[1,2],"vector":[3]}`, false},
		{`{"K":3}`, false},
		{`{"Vector":[1]}`, false},
		{`{"vect\u006fr":[1]}`, false},
		{`{"k\\":1}`, false},
		{`{"extra":1}`, false},
		{`{"k":3} garbage`, false},
		{`{"k":3}{"k":4}`, false},
		{`{"k":3,}`, false},
		{`{"vector":[1,]}`, false},
		{`{"vector":[,1]}`, false},
		{`{"vector":[1 2]}`, false},
		{`{"vector":[01]}`, false},
		{`{"vector":[.5]}`, false},
		{`{"vector":[1.]}`, false},
		{`{"vector":[1e]}`, false},
		{`{"vector":[+1]}`, false},
		{`{"vector":[-]}`, false},
		{`{"vector":[0x10]}`, false},
		{`{"vector":[Infinity]}`, false},
		{`{"vector":[1]`, false},
		{`[1,2]`, false},
		{``, false},
		{"\ufeff{}", false},
	}
	for _, tc := range cases {
		if got := checkParseQuery(t, []byte(tc.body)); got != tc.accept {
			t.Errorf("ParseQuery(%q) accepted = %v, want %v", tc.body, got, tc.accept)
		}
	}
}

// TestParseQueryRespectsFields pins that a member the endpoint does not
// accept is declined, so encoding/json reports it as unknown.
func TestParseQueryRespectsFields(t *testing.T) {
	var req struct {
		Vector []float32
		K      int
		Plan   QueryPlan
	}
	f := QueryFields{Vector: &req.Vector, K: &req.K, Plan: &req.Plan}
	for _, body := range []string{`{"vectors":[[1]]}`, `{"spill":1}`, `{"workers":2}`} {
		if ParseQuery([]byte(body), f) {
			t.Errorf("ParseQuery(%q) accepted a member the fields leave nil", body)
		}
	}
	if !ParseQuery([]byte(`{"vector":[1],"k":2,"tables":3}`), f) || req.K != 2 || req.Plan.Tables != 3 {
		t.Errorf("ParseQuery declined an accepted shape or lost values: %+v", req)
	}
	if ParseQuery([]byte(`{"tables":3}`), QueryFields{K: &req.K}) {
		t.Error("ParseQuery accepted a plan member with a nil Plan")
	}
}

// TestDecodeBodyStrict pins DecodeBody's rejections: unknown fields,
// trailing data and oversized bodies are 400s with a JSON error body.
func TestDecodeBodyStrict(t *testing.T) {
	cases := []struct {
		name, body string
		want       string // "" = accepted
	}{
		{"plain", `{"k":3}`, ""},
		{"trailing whitespace", "{\"k\":3} \n\t", ""},
		{"trailing garbage", `{"k":3} garbage`, "trailing data"},
		{"second value", `{"k":3}{"k":4}`, "trailing data"},
		{"trailing brace", `{"k":3}}`, "trailing data"},
		{"trailing string", `{"k":3} "x"`, "trailing data"},
		{"unknown field", `{"kk":3}`, "unknown field"},
		{"empty", ``, "EOF"},
		{"oversized", `{"k":3}` + strings.Repeat(" ", 64), "too large"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(tc.body))
			var dst struct {
				K int `json:"k"`
			}
			ok := DecodeBody(rec, r, 32, &dst)
			if tc.want == "" {
				if !ok || dst.K != 3 {
					t.Fatalf("DecodeBody(%q) = %v, k %d; body %s", tc.body, ok, dst.K, rec.Body)
				}
				return
			}
			if ok || rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.want) {
				t.Fatalf("DecodeBody(%q) = %v, %d %s; want 400 mentioning %q", tc.body, ok, rec.Code, rec.Body, tc.want)
			}
		})
	}
}

// TestDecodeQueryMatchesDecodeBody pins that DecodeQuery answers every
// body exactly as DecodeBody does: the same status and error text for a
// bad body, the same values for a good one, on either of its paths.
func TestDecodeQueryMatchesDecodeBody(t *testing.T) {
	type request struct {
		Vector []float32 `json:"vector"`
		K      int       `json:"k"`
		QueryPlan
	}
	bodies := []string{
		`{"vector":[1,2],"k":3,"probes":2}`,
		`{"Vector":[1,2],"K":3}`,
		`{"vector":[1,2],"vector":[3]}`,
		`{"vector":[1e39]}`,
		`{"vector":"x"}`,
		`{"k":1.5}`,
		`{"k":3} garbage`,
		`{"k":3}{"k":4}`,
		`{"vectors":[[1]]}`,
		`{"vector":[1,2`,
		`{"vector":[` + strings.Repeat("1,", 40) + `1]}`, // over the cap
		``,
	}
	const maxBytes = 64
	for _, body := range bodies {
		send := func(decode func(http.ResponseWriter, *http.Request, *request) bool) (request, int, string) {
			rec := httptest.NewRecorder()
			var req request
			ok := decode(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)), &req)
			if ok {
				return req, 0, ""
			}
			return request{}, rec.Code, rec.Body.String()
		}
		got, gotCode, gotErr := send(func(w http.ResponseWriter, r *http.Request, req *request) bool {
			return DecodeQuery(w, r, maxBytes, QueryFields{Vector: &req.Vector, K: &req.K, Plan: &req.QueryPlan}, req)
		})
		want, wantCode, wantErr := send(func(w http.ResponseWriter, r *http.Request, req *request) bool {
			return DecodeBody(w, r, maxBytes, req)
		})
		if gotCode != wantCode || gotErr != wantErr || !reflect.DeepEqual(got, want) {
			t.Errorf("body %q: DecodeQuery = %+v %d %q, DecodeBody = %+v %d %q",
				body, got, gotCode, gotErr, want, wantCode, wantErr)
		}
	}
}

func TestAppendVectorMatchesJSON(t *testing.T) {
	vecs := [][]float32{
		nil,
		{},
		{0, float32(math.Copysign(0, -1))},
		{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-40, 1.17549435e-38},
		{1e-7, -1e-7, 1e-6, 9.99e-7},
		{1e21, -1e21, 9.999999e20, 1e20},
		{math.MaxFloat32, -math.MaxFloat32},
		{0.1, 1, -2.5, 3.14159265, 123456.789, 1e-9, 5e-10},
	}
	for _, v := range vecs {
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendVector([]byte("x"), v)
		if err != nil || string(got[1:]) != string(want) || got[0] != 'x' {
			t.Errorf("AppendVector(%v) = %q, %v; json.Marshal = %q", v, got, err, want)
		}
	}
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		if _, err := AppendVector(nil, []float32{1, bad}); err == nil {
			t.Errorf("AppendVector accepted %v", bad)
		}
	}
}

func TestAppendMembersMatchesJSON(t *testing.T) {
	plans := []QueryPlan{
		{},
		{TargetRecall: 0.95},
		{TargetRecall: 1e-7, Probes: 8},
		{TargetRecall: 0.1, Probes: 1, Tables: 2, HierMinCandidates: 3, RerankFactor: 4, StableProbes: 5, MaxCandidates: 6},
		{MaxCandidates: PlanLimit, Tables: -1},
	}
	for _, p := range plans {
		want, err := json.Marshal(struct {
			K int `json:"k"`
			QueryPlan
		}{7, p})
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.AppendMembers([]byte(`{"k":7`))
		if err != nil || string(got)+"}" != string(want) {
			t.Errorf("AppendMembers(%+v) = %q, %v; json.Marshal = %q", p, got, err, want)
		}
	}
	if _, err := (QueryPlan{TargetRecall: math.NaN()}).AppendMembers(nil); err == nil {
		t.Error("AppendMembers accepted a NaN recall")
	}
}

// queryBodies returns n /query bodies of dimension d as a client's
// encoding/json would write them.
func queryBodies(n, d int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(math.Sin(float64(i*d+j))) * 100
		}
		b, err := json.Marshal(struct {
			Vector []float32 `json:"vector"`
			K      int       `json:"k"`
		}{v, 10})
		if err != nil {
			panic(err)
		}
		bodies[i] = b
	}
	return bodies
}

// BenchmarkDecodeQuery times a /query body through DecodeQuery (the
// reflection-free path) and through DecodeBody (encoding/json), each
// including the size-capped body read a handler does.
func BenchmarkDecodeQuery(b *testing.B) {
	type request struct {
		Vector []float32 `json:"vector"`
		K      int       `json:"k"`
		QueryPlan
	}
	for _, d := range []int{128, 960} {
		bodies := queryBodies(16, d)
		decoders := []struct {
			name   string
			decode func(http.ResponseWriter, *http.Request, *request) bool
		}{
			{"parse", func(w http.ResponseWriter, r *http.Request, req *request) bool {
				return DecodeQuery(w, r, 64<<20, QueryFields{Vector: &req.Vector, K: &req.K, Plan: &req.QueryPlan}, req)
			}},
			{"encoding-json", func(w http.ResponseWriter, r *http.Request, req *request) bool {
				return DecodeBody(w, r, 64<<20, req)
			}},
		}
		for _, dec := range decoders {
			b.Run(fmt.Sprintf("d=%d/%s", d, dec.name), func(b *testing.B) {
				rd := bytes.NewReader(nil)
				r := httptest.NewRequest(http.MethodPost, "/query", rd)
				w := httptest.NewRecorder()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body := bodies[i%len(bodies)]
					rd.Reset(body)
					r.Body, r.ContentLength = io.NopCloser(rd), int64(len(body))
					var req request
					if !dec.decode(w, r, &req) || len(req.Vector) != d {
						b.Fatalf("decode failed: %s", w.Body)
					}
				}
			})
		}
	}
}

var sinkBytes []byte

func BenchmarkAppendVector(b *testing.B) {
	for _, d := range []int{128, 960} {
		v := make([]float32, d)
		for j := range v {
			v[j] = float32(math.Sin(float64(j))) * 100
		}
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if sinkBytes, err = AppendVector(sinkBytes[:0], v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

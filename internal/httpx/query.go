package httpx

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Reflection-free codec for the read-path request bodies, /query and
// /batch on both tiers. At GIST-scale dimensionality a query body is
// thousands of float literals, and decoding them through reflection was a
// large share of a served query. ParseQuery scans the body once and
// parses each element with the same strconv call encoding/json makes, so
// the values are bit-identical. It handles only the plain shapes clients
// send; everything else falls back to encoding/json, so every error
// status and message is the one encoding/json produces.

// QueryFields points at the destination of each member a /query or
// /batch body may carry. A nil pointer means the endpoint does not accept
// that member, so a body naming it falls back to encoding/json, which
// reports it as unknown.
type QueryFields struct {
	Vector *[]float32
	// VectorText, when set, receives the JSON text of "vector" exactly as
	// the client sent it: a validated sub-slice of the body.
	VectorText *[]byte
	Vectors    *[][]float32
	// VectorsText, when set, receives the JSON text of each element of
	// "vectors", as VectorText does for "vector".
	VectorsText *[][]byte
	K           *int
	Spill       *int
	Workers     *int
	// Plan receives the seven QueryPlan members.
	Plan *QueryPlan
}

// DecodeQuery reads a size-capped /query or /batch body into f. A body
// ParseQuery declines is decoded by DecodeBody's rules into fallback, the
// endpoint's own request struct, whose fields f must point into. On
// failure it writes the 400 itself and reports false.
func DecodeQuery(w http.ResponseWriter, r *http.Request, maxBytes int64, f QueryFields, fallback interface{}) bool {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBytes {
		// One allocation for the whole body; ReadFrom wants MinRead spare
		// bytes to see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBytes))
	if err == nil && ParseQuery(buf.Bytes(), f) {
		return true
	}
	var body io.Reader = &buf
	if err != nil {
		// The decoder sees the bytes read so far and then the read
		// error, just as it would reading the body itself.
		body = io.MultiReader(&buf, errReader{err})
	}
	return decodeStrict(w, body, fallback)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ParseQuery decodes body into f and reports whether it could. It handles
// one JSON object holding only members f accepts, each at most once,
// spelled exactly and without escapes, with numbers encoding/json would
// store without error. On false f is untouched and the caller decodes the
// same bytes with encoding/json.
func ParseQuery(body []byte, f QueryFields) bool {
	var (
		q    parsedQuery
		seen uint16
		s    = &queryScanner{b: body}
	)
	s.ws()
	if !s.eat('{') {
		return false
	}
	s.ws()
	if !s.eat('}') {
		for {
			key, ok := s.key()
			if !ok {
				return false
			}
			s.ws()
			if !s.eat(':') {
				return false
			}
			s.ws()
			m, ok := memberOf(key, f)
			if !ok || seen&(1<<m) != 0 {
				return false
			}
			seen |= 1 << m
			if !q.value(s, m) {
				return false
			}
			s.ws()
			if s.eat('}') {
				break
			}
			if !s.eat(',') {
				return false
			}
			s.ws()
		}
	}
	s.ws()
	if s.i != len(s.b) {
		return false
	}
	q.store(f, seen)
	return true
}

// Members ParseQuery knows, as bit positions in its seen-set.
const (
	mVector = iota
	mVectors
	mK
	mSpill
	mWorkers
	mRecall
	mProbes
	mTables
	mHierMin
	mRerank
	mStableProbes
	mMaxCandidates
)

// memberOf maps a key to its member, when f accepts it.
func memberOf(key []byte, f QueryFields) (int, bool) {
	var m int
	switch string(key) {
	case "vector":
		return mVector, f.Vector != nil
	case "vectors":
		return mVectors, f.Vectors != nil
	case "k":
		return mK, f.K != nil
	case "spill":
		return mSpill, f.Spill != nil
	case "workers":
		return mWorkers, f.Workers != nil
	case "recall":
		m = mRecall
	case "probes":
		m = mProbes
	case "tables":
		m = mTables
	case "hier_min":
		m = mHierMin
	case "rerank":
		m = mRerank
	case "stable_probes":
		m = mStableProbes
	case "max_candidates":
		m = mMaxCandidates
	default:
		return 0, false
	}
	return m, f.Plan != nil
}

// parsedQuery holds ParseQuery's results until the whole body has parsed.
type parsedQuery struct {
	vector      []float32
	vectorText  []byte
	vectors     [][]float32
	vectorsText [][]byte
	ints        [mMaxCandidates + 1]int
	recall      float64
}

// value parses member m's value at the scanner.
func (q *parsedQuery) value(s *queryScanner, m int) bool {
	var ok bool
	switch m {
	case mVector:
		q.vector, q.vectorText, ok = s.floats(nil)
	case mVectors:
		q.vectors, q.vectorsText, ok = s.floatRows()
	case mRecall:
		q.recall, ok = s.float(64)
	default:
		q.ints[m], ok = s.int()
	}
	return ok
}

// store writes every member seen through f.
func (q *parsedQuery) store(f QueryFields, seen uint16) {
	has := func(m int) bool { return seen&(1<<m) != 0 }
	if has(mVector) {
		*f.Vector = q.vector
		if f.VectorText != nil {
			*f.VectorText = q.vectorText
		}
	}
	if has(mVectors) {
		*f.Vectors = q.vectors
		if f.VectorsText != nil {
			*f.VectorsText = q.vectorsText
		}
	}
	for _, d := range []struct {
		m   int
		dst *int
	}{{mK, f.K}, {mSpill, f.Spill}, {mWorkers, f.Workers}} {
		if has(d.m) {
			*d.dst = q.ints[d.m]
		}
	}
	if f.Plan == nil {
		return
	}
	p := f.Plan
	if has(mRecall) {
		p.TargetRecall = q.recall
	}
	for _, d := range []struct {
		m   int
		dst *int
	}{
		{mProbes, &p.Probes}, {mTables, &p.Tables}, {mHierMin, &p.HierMinCandidates},
		{mRerank, &p.RerankFactor}, {mStableProbes, &p.StableProbes}, {mMaxCandidates, &p.MaxCandidates},
	} {
		if has(d.m) {
			*d.dst = q.ints[d.m]
		}
	}
}

// queryScanner walks a body. Every method leaves i just past what it
// consumed and reports false on input it does not handle.
type queryScanner struct {
	b []byte
	i int
}

// ws skips JSON whitespace.
func (s *queryScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (s *queryScanner) eat(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// key scans a string holding no escapes or control characters and
// returns its contents.
func (s *queryScanner) key() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c == '\\' || c < 0x20:
			return nil, false
		}
	}
	return nil, false
}

// number scans a literal of the JSON number grammar and reports whether
// it is an integer (no fraction or exponent).
func (s *queryScanner) number() (lit []byte, isInt, ok bool) {
	start := s.i
	s.eat('-')
	switch {
	case s.eat('0'):
	case s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	isInt = true
	if s.eat('.') {
		isInt = false
		if !s.digits() {
			return nil, false, false
		}
	}
	if s.eat('e') || s.eat('E') {
		isInt = false
		if !s.eat('-') {
			s.eat('+')
		}
		if !s.digits() {
			return nil, false, false
		}
	}
	return s.b[start:s.i], isInt, true
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (s *queryScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// int scans an integer literal that fits an int, as encoding/json
// requires of an int field.
func (s *queryScanner) int() (int, bool) {
	lit, isInt, ok := s.number()
	if !ok || !isInt {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, strconv.IntSize)
	return int(n), err == nil
}

// float scans a number of the given bit size, declining values
// encoding/json would reject as out of range.
func (s *queryScanner) float(bits int) (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), bits)
	return f, err == nil
}

// floats scans an array of numbers into dst[:0] and returns it with the
// array's text. An empty array yields an empty, non-nil slice, as
// encoding/json gives.
func (s *queryScanner) floats(dst []float32) ([]float32, []byte, bool) {
	start := s.i
	if !s.eat('[') {
		return nil, nil, false
	}
	out := dst[:0]
	if out == nil {
		out = []float32{}
	}
	s.ws()
	if s.eat(']') {
		return out, s.b[start:s.i], true
	}
	for {
		f, ok := s.float(32)
		if !ok {
			return nil, nil, false
		}
		out = append(out, float32(f))
		s.ws()
		if s.eat(']') {
			return out, s.b[start:s.i], true
		}
		if !s.eat(',') {
			return nil, nil, false
		}
		s.ws()
	}
}

// floatRows scans an array of number arrays. Rows after the first start
// with the first's capacity, since a batch holds equal-length vectors.
func (s *queryScanner) floatRows() ([][]float32, [][]byte, bool) {
	if !s.eat('[') {
		return nil, nil, false
	}
	rows, texts := [][]float32{}, [][]byte{}
	s.ws()
	if s.eat(']') {
		return rows, texts, true
	}
	for {
		var hint []float32
		if len(rows) > 0 {
			hint = make([]float32, 0, len(rows[0]))
		}
		row, text, ok := s.floats(hint)
		if !ok {
			return nil, nil, false
		}
		rows, texts = append(rows, row), append(texts, text)
		s.ws()
		if s.eat(']') {
			return rows, texts, true
		}
		if !s.eat(',') {
			return nil, nil, false
		}
		s.ws()
	}
}

// AppendVector appends the JSON encoding of v, byte for byte what
// encoding/json writes for a []float32: null for nil, and an error for a
// NaN or infinite component.
func AppendVector(dst []byte, v []float32) ([]byte, error) {
	if v == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = appendFloat(dst, float64(x), 32); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// AppendMembers appends the plan's non-zero fields as JSON object
// members, each preceded by a comma, exactly as encoding/json writes an
// embedded QueryPlan after an earlier member.
func (p QueryPlan) AppendMembers(dst []byte) ([]byte, error) {
	if p.TargetRecall != 0 {
		var err error
		dst = append(dst, `,"recall":`...)
		if dst, err = appendFloat(dst, p.TargetRecall, 64); err != nil {
			return dst, err
		}
	}
	for _, f := range []struct {
		key string
		n   int
	}{
		{`,"probes":`, p.Probes}, {`,"tables":`, p.Tables}, {`,"hier_min":`, p.HierMinCandidates},
		{`,"rerank":`, p.RerankFactor}, {`,"stable_probes":`, p.StableProbes}, {`,"max_candidates":`, p.MaxCandidates},
	} {
		if f.n != 0 {
			dst = strconv.AppendInt(append(dst, f.key...), int64(f.n), 10)
		}
	}
	return dst, nil
}

// appendFloat formats f as encoding/json's float encoder does for the
// given bit size: shortest round-trip digits, exponent form outside
// [1e-6, 1e21), and a one-digit negative exponent unpadded.
func appendFloat(dst []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, bits))
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	dst = strconv.AppendFloat(dst, f, format, -1, bits)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

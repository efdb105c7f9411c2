package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"cosma"
)

// referenceHandler is POST /v1/multiply as it stood before the direct
// codec: encoding/json in both directions, the body unbounded. The
// differential tests hold Handler to it, status and bytes.
func referenceHandler(s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req MultiplyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpError(w, http.StatusBadRequest, s.reject(fmt.Errorf("decoding request: %w", err)))
			return
		}
		a, b, err := req.matrices()
		if err != nil {
			httpError(w, http.StatusBadRequest, s.reject(err))
			return
		}
		ctx := r.Context()
		if h := r.Header.Get(DeadlineHeader); h != "" {
			ms, err := strconv.Atoi(h)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, s.reject(fmt.Errorf("serve: bad %s %q", DeadlineHeader, h)))
				return
			}
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
			defer cancel()
		}
		c, rep, err := s.Multiply(ctx, a, b)
		if err != nil {
			multiplyError(w, err)
			return
		}
		writeJSON(w, MultiplyResponse{
			M: c.Rows, N: c.Cols, C: c.Data,
			Algorithm: rep.Model.Name, Grid: rep.Model.Grid, MaxRecv: rep.MaxRecv,
		})
	})
}

// fuzzMaxDim bounds the differential servers' shapes, and with them
// the body: 2·8²·25 + 1024 bytes.
const (
	fuzzMaxDim    = 8
	fuzzBodyLimit = 2*fuzzMaxDim*fuzzMaxDim*25 + 1024
)

// checkAgainstReference posts body to both handlers and fails on any
// difference in status or answer bytes, bar the two the codec fixed on
// purpose: a body beyond the limit is a 413, and a product JSON cannot
// carry is a 422 where the reference answered 200 with nothing.
func checkAgainstReference(t *testing.T, h, ref http.Handler, body []byte) {
	t.Helper()
	post := func(h http.Handler) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		return rec
	}
	got, want := post(h), post(ref)
	switch {
	case len(body) > fuzzBodyLimit:
		if got.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%d-byte body (limit %d): status %d, want 413", len(body), fuzzBodyLimit, got.Code)
		}
	case got.Code == http.StatusUnprocessableEntity:
		if want.Code != http.StatusOK || want.Body.Len() != 0 {
			t.Fatalf("422 for body %q, but encoding/json could encode the product: %d %q", body, want.Code, want.Body)
		}
	case got.Code != want.Code:
		t.Fatalf("status %d, encoding/json reference %d, for body %q", got.Code, want.Code, body)
	case !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()):
		t.Fatalf("status %d for body %q:\n got %q\nwant %q", got.Code, body, got.Body, want.Body)
	}
}

// bitPatterns is the float64 population of the property tests: the
// values where encoding/json changes format or strconv changes
// algorithm, then seeded raw bit patterns (which cover subnormals,
// 17-digit mantissas, NaNs and both infinities).
func bitPatterns() []float64 {
	vals := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, -2.5e-7,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-7, 9.999999e-7,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e22,
		5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.MaxFloat64, -math.MaxFloat64, 1e-9, 1e-10, 1.5e-100, 1e100,
		0.30000000000000004, 123456789.12345679, 9007199254740993, 1.7976931348623157e308,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 4000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	return vals
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// TestAppendResponseMatchesEncodingJSON: over the bit patterns, one at a
// time (so a failure names the value) and all together, the appended
// answer is json.NewEncoder's bytes; a non-finite word is an error to
// both.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	check := func(resp MultiplyResponse) {
		t.Helper()
		var want bytes.Buffer
		wantErr := json.NewEncoder(&want).Encode(resp)
		got, err := appendResponse(nil, &resp)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("C = %v: error %v, encoding/json %v", resp.C, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("C = %v:\n got %q\nwant %q", resp.C, got, want.Bytes())
		}
	}
	var all []float64
	for _, f := range bitPatterns() {
		check(MultiplyResponse{M: 1, N: 1, C: []float64{f}, Algorithm: "COSMA", Grid: "1×1×1", MaxRecv: 7})
		if finite(f) {
			all = append(all, f)
		}
	}
	check(MultiplyResponse{M: len(all), N: 1, C: all, Algorithm: "COSMA", Grid: "2×2×1", MaxRecv: 1 << 40})
	// The report strings take encoding/json's escaping, whatever they hold.
	check(MultiplyResponse{M: -1, C: []float64{}, Algorithm: "a<b>&\"c\"\\\u2028\xff", Grid: "\t\n"})
	check(MultiplyResponse{})
}

// sameRequest compares bit for bit: reflect.DeepEqual alone would call
// -0 and 0 the same word.
func sameRequest(a, b MultiplyRequest) bool {
	same := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return a.M == b.M && a.N == b.N && a.K == b.K && same(a.A, b.A) && same(a.B, b.B)
}

// TestScanRequestMatchesEncodingJSON: every spelling of every finite bit
// pattern, in bodies of every key order and spacing, scans to exactly
// the request json.Decoder builds — and does scan, so the fast path is
// what the comparison exercised.
func TestScanRequestMatchesEncodingJSON(t *testing.T) {
	check := func(body string) {
		t.Helper()
		var got, want MultiplyRequest
		if err := json.NewDecoder(strings.NewReader(body)).Decode(&want); err != nil {
			t.Fatalf("encoding/json refuses %q: %v", body, err)
		}
		if !scanRequest([]byte(body), &got) {
			t.Fatalf("plain body took the fallback: %q", body)
		}
		if !sameRequest(got, want) {
			t.Fatalf("body %q:\n got %+v\nwant %+v", body, got, want)
		}
	}

	var spellings []string
	for _, f := range bitPatterns() {
		if !finite(f) {
			continue
		}
		enc := string(appendFloat(nil, f))
		spellings = append(spellings, enc,
			strconv.FormatFloat(f, 'e', -1, 64),
			strings.ToUpper(strconv.FormatFloat(f, 'e', 16, 64)),
			strconv.FormatFloat(f, 'g', -1, 64),
			strconv.FormatFloat(f, 'f', -1, 64))
	}
	// Grammar corners: signed and zero exponents, underflow to zero,
	// more digits than float64 keeps.
	spellings = append(spellings, "-0", "0e0", "0.0E-0", "-0.000e+5", "1E5", "1e+5", "12e-1",
		"1e-400", "-1e-400", "4.9e-324", "2.4703282292062327e-324",
		"0.1000000000000000055511151231257827021181583404541015625", "123456789012345678901234567890")
	spellings = append(spellings, exactEdges...)
	// strconv stops reading an exponent once it reaches 10000, so this is
	// 0, not 1, to encoding/json: the scan must stop where strconv does.
	spellings = append(spellings, "0."+strings.Repeat("0", 99999)+"1e100000")
	for _, sp := range spellings {
		check(`{"m":1,"n":1,"k":1,"a":[` + sp + `],"b":[` + sp + `]}`)
	}

	all := strings.Join(spellings, ",")
	spaced := strings.Join(spellings, " ,\r\n\t")
	for _, body := range []string{
		`{"m":1,"n":2,"k":3,"a":[` + all + `],"b":[` + all + `]}`,
		" \n{ \"b\" : [ " + spaced + " ] ,\t\"k\":-0, \"a\":[\n" + spaced + "\n], \"n\": 7 ,\"m\" :123456789 } \r\n",
		`{"a":[],"b":[ ],"m":-5}`,
		`{"k":2}`,
		`{}`,
		` { } `,
	} {
		check(body)
	}
}

// exactEdges are the spellings at the edges of scanNumber's exact case
// (a mantissa below 2⁵³ scaled by 10^-22 … 10^22): just inside and just
// outside each bound, mantissas of 19 and 20 digits, leading zeros that
// do not count and zeros scaled out of float64's range.
var exactEdges = []string{
	"9007199254740991", "9007199254740992", "9007199254740993", "4503599627370497e-22",
	"9007199254740991e-22", "9007199254740993e-22", "1e22", "1e23", "1e-22", "1e-23", "-1.5e22",
	"1234567890123456789", "1234567890123456789000", "12345678901234567891", "12345678901234567891000",
	"0.0000000000000000000000001", "-0e22", "0e400", "1e0000000000000000001", "0.00000000000000000000000001e25",
}

// TestScanRequestFallsBack: bodies outside the plain form — most of
// them valid JSON that encoding/json answers in its own way — are left
// to it.
func TestScanRequestFallsBack(t *testing.T) {
	for _, body := range fallbackBodies {
		var req MultiplyRequest
		if scanRequest([]byte(body), &req) {
			t.Errorf("scanned %q as %+v; it must fall back to encoding/json", body, req)
		}
	}
}

// fallbackBodies also seed FuzzMultiplyHandler, where each must answer
// exactly as the reference does.
var fallbackBodies = []string{
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3]} trailing`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3]}{"m":2}`,
	`{"m":1,"n":1,"k":1,"a":[null],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":null,"b":[3]}`,
	`{"m":null,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1,"m":1,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[2],"a":[4],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3],"extra":true}`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3],"c":[1]}`,
	`{"M":1,"N":1,"K":1,"A":[2],"B":[3]}`,
	`{"\u006d":1,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1e9,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1.0,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1234567890,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":01,"n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":"1","n":1,"k":1,"a":[2],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[1e400],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[0x10],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[1_0],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[Inf],"b":[NaN]}`,
	`{"m":1,"n":1,"k":1,"a":[+1],"b":[.5]}`,
	`{"m":1,"n":1,"k":1,"a":[1.],"b":[1e]}`,
	`{"m":1,"n":1,"k":1,"a":[-],"b":[00]}`,
	`{"m":1,"n":1,"k":1,"a":["2"],"b":[[3]]}`,
	`{"m":1,"n":1,"k":1,"a":[2,],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[,2],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[,,,,,,,,,,,,,,,,],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[2 3],"b":[3]}`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3],}`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3]`,
	`{"m":1,"n":1,"k":1,"a":[2],"b":[3`,
	`{"m":1 "n":1}`,
	`{"m" 1}`,
	`{"m":}`,
	`{"m`,
	`{`,
	`[{"m":1}]`,
	`null`,
	`1`,
	"\ufeff{}",
	``,
}

// TestHTTPOverflowedProduct: a product beyond float64 used to answer 200
// with an empty body (the encoder's error was dropped after the header
// went out). It is a 422 with the usual error body now.
func TestHTTPOverflowedProduct(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json",
		strings.NewReader(`{"m":1,"n":1,"k":1,"a":[1e200],"b":[1e200]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}
	var body errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || !strings.Contains(body.Error, "+Inf") {
		t.Fatalf("error body %+v (%v), want one naming the +Inf word", body, err)
	}
}

// TestHTTPBodyBounded: the body is cut off at the limit MaxDim implies
// before any of it is parsed, and a Content-Length beyond the limit
// sizes nothing.
func TestHTTPBodyBounded(t *testing.T) {
	s := newTestServer(t, Options{MaxDim: fuzzMaxDim})
	h := Handler(s)
	post := func(body string, contentLength int64) int {
		req := httptest.NewRequest(http.MethodPost, "/v1/multiply", strings.NewReader(body))
		req.ContentLength = contentLength
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}

	const valid = `{"m":1,"n":1,"k":1,"a":[2],"b":[3]}`
	padded := valid + strings.Repeat(" ", fuzzBodyLimit)
	if status := post(padded, int64(len(padded))); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte body against a %d-byte limit: status %d, want 413", len(padded), fuzzBodyLimit, status)
	}
	if status := post(padded, -1); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("same body, length undeclared: status %d, want 413", status)
	}
	if st := s.Stats(); st.Rejected != 2 || st.Requests != 0 {
		t.Fatalf("stats %+v, want both oversized bodies rejected unparsed", st)
	}
	atLimit := valid + strings.Repeat(" ", fuzzBodyLimit-len(valid))
	if status := post(atLimit, int64(len(atLimit))); status != http.StatusOK {
		t.Fatalf("body of exactly the limit: status %d, want 200", status)
	}

	// A terabyte claimed, 35 bytes sent: the claim must not size a buffer.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status := post(valid, 1<<40)
	runtime.ReadMemStats(&after)
	if status != http.StatusOK {
		t.Fatalf("overstated Content-Length: status %d, want 200", status)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("overstated Content-Length allocated %d bytes", grew)
	}
}

// The three benchmarks share one 192³ request, the largest shape of the
// repository benchmark's serve-mix.
func benchRequest(tb testing.TB) (s *Server, body []byte, resp *MultiplyResponse) {
	tb.Helper()
	const dim = 192
	s, err := New(Options{
		Engine: []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(3 * dim * dim)},
		Shards: 1, MaxDim: dim,
	})
	if err != nil {
		tb.Fatal(err)
	}
	a, b := cosma.RandomMatrix(dim, dim, 1), cosma.RandomMatrix(dim, dim, 2)
	if body, err = json.Marshal(MultiplyRequest{M: dim, N: dim, K: dim, A: a.Data, B: b.Data}); err != nil {
		tb.Fatal(err)
	}
	c, rep, err := s.Multiply(context.Background(), a, b)
	if err != nil {
		tb.Fatal(err)
	}
	return s, body, &MultiplyResponse{M: dim, N: dim, C: c.Data, Algorithm: rep.Model.Name, Grid: rep.Model.Grid, MaxRecv: rep.MaxRecv}
}

// countingWriter is a ResponseWriter that drops the answer and keeps
// its length and status.
type countingWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header         { return w.header }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *countingWriter) WriteHeader(status int)      { w.status = status }

func BenchmarkHandlerMultiply(b *testing.B) {
	s, body, _ := benchRequest(b)
	h := Handler(s)
	w := countingWriter{header: http.Header{}}
	b.ReportAllocs()
	for b.Loop() {
		w.n = 0
		h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
	b.SetBytes(int64(len(body) + w.n))
}

func BenchmarkDecodeMultiply(b *testing.B) {
	_, body, _ := benchRequest(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := decodeRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendResponse(b *testing.B) {
	_, _, resp := benchRequest(b)
	var out []byte
	b.ReportAllocs()
	for b.Loop() {
		var err error
		if out, err = appendResponse(out[:0], resp); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(out)))
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"cosma"
)

// FuzzMultiplyHandler throws arbitrary bodies at POST /v1/multiply
// through a real server with a tiny admission bound. The invariants:
// the handler never panics, never hangs, always answers one of the
// documented statuses — 200 for a well-formed multiplication, 400 for
// garbage, 413 past the body limit, 422 for a product JSON cannot
// carry, 429 when shedding, 503 while draining — and answers every
// body with the status and the bytes the encoding/json handler it
// replaced gives it (checkAgainstReference names the two exceptions).
func FuzzMultiplyHandler(f *testing.F) {
	srv, err := New(Options{
		Engine: []cosma.Option{cosma.WithProcs(2), cosma.WithMemory(1 << 10)},
		Shards: 1,
		MaxDim: fuzzMaxDim, // keeps a fuzzed 200 response to a handful of flops
	})
	if err != nil {
		f.Fatal(err)
	}
	handler, ref := Handler(srv), referenceHandler(srv)
	ts := httptest.NewServer(handler)
	f.Cleanup(ts.Close)

	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1,2,3,4],"b":[5,6,7,8]}`))
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[2],"b":[3]}`))
	f.Add([]byte(`{"m":0,"n":0,"k":0}`))
	f.Add([]byte(`{"m":-1,"n":2,"k":2,"a":[],"b":[]}`))
	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1],"b":[1]}`)) // wrong payload length
	f.Add([]byte(`{"m":9,"n":9,"k":9,"a":[1],"b":[1]}`)) // beyond MaxDim
	f.Add([]byte(`{"m":1e9,"n":1e9,"k":1e9}`))           // huge dims, no payload
	f.Add([]byte(`{"a":[1,2],"b":`))                     // truncated JSON
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"m":2,"n":2,"k":2,"a":[1,null,3,4],"b":[5,6,7,8]}`))
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[1e200],"b":[1e200]}`)) // product +Inf: 422
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[1e200],"b":[-1e200,]}`))
	f.Add([]byte("{\n  \"b\": [3, 4, 5, 6],\n  \"k\": 2, \"n\": 2,\n  \"a\": [1, 0, 0, 1],\n  \"m\": 2\n}\n"))
	f.Add([]byte(`{"m":1,"n":2,"k":1,"a":[-0],"b":[1e-7,1E+21]}`)) // -0 and both exponent formats out
	f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[0.30000000000000004],"b":[5e-324]}`))
	f.Add(bytes.Repeat([]byte(" "), fuzzBodyLimit+1)) // past the limit: 413
	for _, body := range fallbackBodies {
		f.Add([]byte(body))
	}
	for _, sp := range exactEdges {
		f.Add([]byte(`{"m":1,"n":1,"k":1,"a":[` + sp + `],"b":[` + sp + `]}`))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := http.Post(ts.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("transport error: %v", err)
		}
		// Read to the end so the connection is reused: one per input
		// leaves tens of thousands of local ports in TIME_WAIT.
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK, http.StatusBadRequest,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q", resp.StatusCode, body)
		}
		checkAgainstReference(t, handler, ref, body)
	})
}

// FuzzScanFloats holds the number scanner alone to encoding/json, many
// times faster than a handler round trip: an array scanFloats takes is
// one json.Unmarshal takes to the same bits, and an array of numbers
// json.Unmarshal takes is one scanFloats takes. (A null element is
// json's alone: the scan leaves it to the fallback.)
func FuzzScanFloats(f *testing.F) {
	// The last seed overflows: the scan must not stop reading its
	// exponent before strconv does (at 10000) and take it for 0.1.
	for _, tok := range append(exactEdges, "", " ", "1,2", "1e400", "01", "1.", "+1", "0x10", "null", "1,null",
		"0."+strings.Repeat("0", 1000)+"1e10000") {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		body := "[" + tok + "]"
		var got, want []float64
		scanned := scanFloats([]byte(body), 0, &got) == len(body)
		decoded := json.Unmarshal([]byte(body), &want) == nil
		switch {
		case scanned && !decoded:
			t.Fatalf("%q: scanned to %v, encoding/json refuses it", body, got)
		case !scanned && decoded && !strings.Contains(tok, "null"):
			t.Fatalf("%q: refused, encoding/json reads %v", body, want)
		case scanned && !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }):
			t.Fatalf("%q: scanned to %v, encoding/json reads %v", body, got, want)
		}
	})
}

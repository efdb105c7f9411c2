package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cosma"
)

// MultiplyRequest is the JSON body of POST /v1/multiply: row-major
// float64 payloads for A (m×k) and B (k×n).
type MultiplyRequest struct {
	M int       `json:"m"`
	N int       `json:"n"`
	K int       `json:"k"`
	A []float64 `json:"a"`
	B []float64 `json:"b"`
}

// MultiplyResponse is the JSON answer: the row-major m×n product plus
// the execution report's headline numbers.
type MultiplyResponse struct {
	M         int       `json:"m"`
	N         int       `json:"n"`
	C         []float64 `json:"c"`
	Algorithm string    `json:"algorithm"`
	Grid      string    `json:"grid"`
	MaxRecv   int64     `json:"max_recv_words"`
}

// errorResponse is the JSON body of every non-200 answer.
type errorResponse struct {
	Error string `json:"error"`
}

// DeadlineHeader carries a request's remaining time budget in whole
// milliseconds. When present and positive, the serving context gets
// that deadline, and it propagates into the batched execution: a batch
// whose members all carry deadlines is cancelled once the last one
// expires instead of riding out an engine-side hang. Expiry maps to
// 504.
const DeadlineHeader = "X-Cosma-Deadline-Ms"

// bufPool recycles the byte buffers of /v1/multiply: the body as it
// was read and the answer as it is written, each held only while it is
// parsed or sent, never while the request waits for its batch.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func putBuffer(b *bytes.Buffer) {
	b.Reset()
	bufPool.Put(b)
}

// Handler returns the server's HTTP API:
//
//	POST /v1/multiply — multiply one pair (MultiplyRequest → MultiplyResponse);
//	                    429 when shedding, 503 while draining or a shard's
//	                    circuit is open (all with Retry-After), 504 when
//	                    the X-Cosma-Deadline-Ms budget expires, 400 on bad
//	                    input, 413 on a body no admissible request could
//	                    fill, 422 when the product overflows float64, 500
//	                    when the engine fails
//	GET  /v1/stats    — the Stats snapshot as JSON
//	GET  /healthz     — 200 "ok" while accepting, 503 while draining
func Handler(s *Server) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/multiply", func(w http.ResponseWriter, r *http.Request) {
		req, err := s.readRequest(w, r)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, s.reject(fmt.Errorf("decoding request: %w", err)))
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
			status := statusFor(err)
			if d := s.retryAfter(err); d > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(int((d+time.Second-1)/time.Second)))
			}
			httpError(w, status, err)
			return
		}
		// The whole answer is encoded before the first byte goes out, so a
		// product JSON cannot carry still gets a status of its own. 24
		// bytes a word is room for full-precision values; append grows
		// past it if a product needs more.
		buf := bufPool.Get().(*bytes.Buffer)
		defer putBuffer(buf)
		buf.Grow(24*len(c.Data) + 256)
		out, err := appendResponse(buf.AvailableBuffer(), &MultiplyResponse{
			M: c.Rows, N: c.Cols, C: c.Data,
			Algorithm: rep.Name, Grid: rep.Grid, MaxRecv: rep.MaxRecv,
		})
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.Stats().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// readRequest reads one request body and decodes it. The body is
// bounded before it is parsed: the largest admissible request carries
// 2·MaxDim² numbers of at most 25 bytes each (sign, 17 digits, point,
// four-character exponent, comma), and 1 KiB covers the rest; past that
// the read fails with *http.MaxBytesError. A client's Content-Length
// sizes the buffer only up to that limit (and up to 1 GiB, which an int
// holds on every platform); a longer body grows it as it arrives.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (MultiplyRequest, error) {
	dim := int64(s.opts.maxDim())
	limit := 2*dim*dim*25 + 1024
	body := bufPool.Get().(*bytes.Buffer)
	defer putBuffer(body)
	if n := min(r.ContentLength, limit, 1<<30); n > 0 {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, limit)); err != nil {
		return MultiplyRequest{}, err
	}
	return decodeRequest(body.Bytes())
}

func (req *MultiplyRequest) matrices() (a, b *cosma.Matrix, err error) {
	if req.M < 1 || req.N < 1 || req.K < 1 {
		return nil, nil, fmt.Errorf("serve: invalid dimensions %d×%d×%d", req.M, req.N, req.K)
	}
	if len(req.A) != req.M*req.K {
		return nil, nil, fmt.Errorf("serve: A has %d words, want m·k = %d", len(req.A), req.M*req.K)
	}
	if len(req.B) != req.K*req.N {
		return nil, nil, fmt.Errorf("serve: B has %d words, want k·n = %d", len(req.B), req.K*req.N)
	}
	return cosma.MatrixFromSlice(req.M, req.K, req.A), cosma.MatrixFromSlice(req.K, req.N, req.B), nil
}

// statusFor maps service errors onto HTTP statuses: shedding is 429
// (retryable once a batch has finished), draining and an open circuit
// are 503 (retry another replica, or after the cooldown), an expired
// deadline budget is 504, a request the server refused for what it asks
// (a rejection, or a shape the algorithm cannot schedule) is 400, and
// anything else is the engine failing under a well-formed request: 500,
// so a retrying client is not told the fault is its own.
func statusFor(err error) int {
	var rej rejection
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, ErrShardOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.As(err, &rej), errors.Is(err, cosma.ErrUnsupportedShape):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// retryAfter suggests when a rejected request is worth re-sending: one
// breaker cooldown after tripping a circuit, and a nominal second — the
// header's resolution — after shedding (the queue drains at execution
// speed) and while draining (really: go elsewhere). 0 means no header.
func (s *Server) retryAfter(err error) time.Duration {
	switch {
	case errors.Is(err, ErrShardOpen):
		return s.opts.breakerCooldown()
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return time.Second
	default:
		return 0
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"cosma"
)

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.Engine == nil {
		opts.Engine = []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(1 << 14)}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// slowEngine is the test engine with rank 0 stalling for d in every
// Compute call, so a batch is executing for at least d per pair: the
// way to keep requests queued behind it, since nothing in the server
// sleeps.
func slowEngine(d time.Duration) []cosma.Option {
	return []cosma.Option{
		cosma.WithProcs(4), cosma.WithMemory(1 << 14),
		cosma.WithFaultPlan(cosma.FaultPlan{Slow: []cosma.SlowRank{{Rank: 0, PerCompute: d}}}),
	}
}

// waitStats polls until the server's counters satisfy cond.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s: %+v", what, s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued polls until exactly n requests are admitted and unanswered.
func waitQueued(t *testing.T, s *Server, n int) {
	t.Helper()
	waitStats(t, s, fmt.Sprintf("%d queued", n), func(st Stats) bool { return st.Queued == n })
}

// reference multiplies on a directly-built engine with the test
// server's options: the schedule is deterministic, so the server's
// answer must be bitwise-identical.
func reference(t *testing.T, a, b *cosma.Matrix) *cosma.Matrix {
	t.Helper()
	eng, err := cosma.NewEngine(cosma.WithProcs(4), cosma.WithMemory(1<<14))
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := eng.Exec(context.Background(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMultiplyCorrectAndBatched holds the first request's batch in a
// slow engine and sends the rest meanwhile: they find their bucket busy,
// queue behind it, and must all ride the one batch that follows.
func TestMultiplyCorrectAndBatched(t *testing.T) {
	s := newTestServer(t, Options{Engine: slowEngine(50 * time.Millisecond)})
	ctx := context.Background()

	const reqs = 5
	as := make([]*cosma.Matrix, reqs)
	bs := make([]*cosma.Matrix, reqs)
	wants := make([]*cosma.Matrix, reqs)
	for i := range as {
		as[i] = cosma.RandomMatrix(48, 32, int64(i+1))
		bs[i] = cosma.RandomMatrix(32, 24, int64(i+100))
		wants[i] = reference(t, as[i], bs[i])
	}
	var wg sync.WaitGroup
	errs := make([]error, reqs)
	send := func(i int) {
		defer wg.Done()
		c, rep, err := s.Multiply(ctx, as[i], bs[i])
		if err != nil {
			errs[i] = err
			return
		}
		if rep == nil {
			errs[i] = errors.New("nil report")
			return
		}
		for j := range wants[i].Data {
			if c.Data[j] != wants[i].Data[j] {
				errs[i] = fmt.Errorf("word %d: got %v want %v", j, c.Data[j], wants[i].Data[j])
				return
			}
		}
	}
	wg.Add(reqs)
	go send(0)
	waitStats(t, s, "the first batch taken", func(st Stats) bool { return st.Batches == 1 })
	for i := 1; i < reqs; i++ {
		go send(i)
	}
	waitQueued(t, s, reqs)
	if st := s.Stats(); st.Batches != 1 || st.Batched != 1 {
		t.Fatalf("%d batches of %d pairs with every request queued; the idle bucket's first request should be executing alone", st.Batches, st.Batched)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	waitQueued(t, s, 0) // slots are released just after the answers go out
	st := s.Stats()
	if st.Requests != reqs {
		t.Fatalf("requests = %d, want %d", st.Requests, reqs)
	}
	if st.Batches != 2 || st.Batched != reqs || st.MaxBatch != reqs-1 {
		t.Fatalf("%d batches, %d pairs, largest %d; want the first alone and the other %d in one batch",
			st.Batches, st.Batched, st.MaxBatch, reqs-1)
	}
}

// TestIdleBucketFlushesWithoutWaiting pins the other half: with nobody
// to wait for, a request costs its multiplication. The fastest of a run
// of lone requests must come in far below the 2 ms every one of them
// used to sleep.
func TestIdleBucketFlushesWithoutWaiting(t *testing.T) {
	s := newTestServer(t, Options{})
	ctx := context.Background()
	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	best := time.Hour
	for i := 0; i < 50; i++ {
		start := time.Now()
		if _, _, err := s.Multiply(ctx, a, b); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	if best > time.Millisecond {
		t.Fatalf("fastest lone request took %v; an idle bucket must not wait", best)
	}
	if st := s.Stats(); st.Batches != 50 || st.MaxBatch != 1 {
		t.Fatalf("%d batches, largest %d; want 50 batches of one", st.Batches, st.MaxBatch)
	}
}

func TestShedsBeyondQueueLimit(t *testing.T) {
	s := newTestServer(t, Options{QueueLimit: 2, Engine: slowEngine(100 * time.Millisecond)})
	ctx := context.Background()
	a := cosma.RandomMatrix(16, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)

	// Two requests fill the queue — one executing slowly, one behind it —
	// long enough for two more, of two shapes, to arrive and be shed.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.Multiply(ctx, a, b); err != nil {
				t.Error(err)
			}
		}()
	}
	waitQueued(t, s, 2)
	for _, m := range []*cosma.Matrix{a, cosma.RandomMatrix(8, 16, 3)} {
		if _, _, err := s.Multiply(ctx, m, b); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("%d×16×16: got %v, want ErrOverloaded", m.Rows, err)
		}
	}
	wg.Wait()
	if st := s.Stats(); st.Shed != 2 {
		t.Fatalf("shed = %d, want 2", st.Shed)
	}
}

func TestDrain(t *testing.T) {
	s := newTestServer(t, Options{Engine: slowEngine(50 * time.Millisecond)})
	ctx := context.Background()
	a := cosma.RandomMatrix(32, 32, 1)
	b := cosma.RandomMatrix(32, 32, 2)

	done := make(chan error, 1)
	go func() {
		_, _, err := s.Multiply(ctx, a, b)
		done <- err
	}()
	// Wait for admission so Drain has something in flight.
	waitQueued(t, s, 1)

	drainCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if _, _, err := s.Multiply(ctx, a, b); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

func TestRejectsOversized(t *testing.T) {
	s := newTestServer(t, Options{MaxDim: 64})
	a := cosma.RandomMatrix(65, 16, 1)
	b := cosma.RandomMatrix(16, 16, 2)
	if _, _, err := s.Multiply(context.Background(), a, b); err == nil {
		t.Fatal("oversized request accepted")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
}

// TestServeUnschedulableShapeDoesNotStarveOthers holds a batch's error
// to its own requests: shapes SUMMA's [2×2×1] grid cannot cut (m = 1)
// are each refused and counted as rejected, and a schedulable shape on
// the same shard is answered right after them, bit for bit as a direct
// Exec would.
func TestServeUnschedulableShapeDoesNotStarveOthers(t *testing.T) {
	engine := []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(1 << 14), cosma.WithAlgorithm("summa")}
	s := newTestServer(t, Options{Engine: engine, Shards: 1})
	ctx := context.Background()

	for i := 0; i < 6; i++ {
		_, _, err := s.Multiply(ctx, cosma.RandomMatrix(1, 3, int64(i)), cosma.RandomMatrix(3, 3, int64(i+10)))
		if !errors.Is(err, cosma.ErrUnsupportedShape) {
			t.Fatalf("1×3×3 request %d: err = %v, want ErrUnsupportedShape", i, err)
		}
	}
	if st := s.Stats(); st.Rejected != 6 || st.BatchFailures != 0 {
		t.Fatalf("rejected = %d, batch failures = %d; want 6 and 0", st.Rejected, st.BatchFailures)
	}

	a := cosma.RandomMatrix(4, 4, 1)
	b := cosma.RandomMatrix(4, 4, 2)
	got, _, err := s.Multiply(ctx, a, b)
	if err != nil {
		t.Fatalf("4×4×4 request after the refusals: %v", err)
	}
	eng, err := cosma.NewEngine(engine...)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := eng.Exec(ctx, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("word %d: got %v want %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestServeRetryRecoversScriptedDeaths is recovery on the serving path:
// the engine's first two executions lose a rank each, its retry policy
// re-runs them, and every request is answered with the fault-free
// product — the two re-runs counted as retries, no batch as failed.
func TestServeRetryRecoversScriptedDeaths(t *testing.T) {
	s := newTestServer(t, Options{
		Engine: []cosma.Option{
			cosma.WithProcs(4), cosma.WithMemory(1 << 14),
			cosma.WithFaultPlan(cosma.FaultPlan{Deaths: []cosma.RankDeath{
				{Rank: 1, Round: 0, OnAttempt: 1},
				{Rank: 2, Round: 0, OnAttempt: 2},
			}}),
			cosma.WithRetry(3),
		},
		Shards: 1,
	})
	a := cosma.RandomMatrix(32, 32, 1)
	b := cosma.RandomMatrix(32, 32, 2)
	want := reference(t, a, b)
	for i := 0; i < 4; i++ {
		got, _, err := s.Multiply(context.Background(), a, b)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("request %d, word %d: got %v want %v", i, j, got.Data[j], want.Data[j])
			}
		}
	}
	if st := s.Stats(); st.Retries != 2 || st.BatchFailures != 0 {
		t.Fatalf("retries = %d, batch failures = %d; want 2 and 0", st.Retries, st.BatchFailures)
	}
}

func TestShardingSpreadsShapes(t *testing.T) {
	s := newTestServer(t, Options{Shards: 4})
	seen := map[int]bool{}
	for m := 1; m <= 64; m++ {
		seen[shapeKey{m, m, m}.shard(s.Engines())] = true
	}
	if len(seen) != 4 {
		t.Fatalf("64 shapes hit only %d of 4 shards", len(seen))
	}
}

func TestHTTPMultiplyAndStats(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	a := cosma.RandomMatrix(24, 16, 1)
	b := cosma.RandomMatrix(16, 8, 2)
	body, _ := json.Marshal(MultiplyRequest{M: 24, N: 8, K: 16, A: a.Data, B: b.Data})
	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// The answer is encoded whole before it is sent, so it carries its
	// length rather than going out in chunks.
	if resp.ContentLength != int64(len(raw)) || len(resp.TransferEncoding) != 0 {
		t.Fatalf("%d-byte answer sent with Content-Length %d, Transfer-Encoding %v", len(raw), resp.ContentLength, resp.TransferEncoding)
	}
	var out MultiplyResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.M != 24 || out.N != 8 || len(out.C) != 24*8 {
		t.Fatalf("bad response shape %d×%d (%d words)", out.M, out.N, len(out.C))
	}
	want := reference(t, a, b)
	for i := range want.Data {
		if out.C[i] != want.Data[i] {
			t.Fatalf("word %d: got %v want %v", i, out.C[i], want.Data[i])
		}
	}

	// Malformed body → 400.
	resp2, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader([]byte(`{"m":2,"n":2,"k":2,"a":[1],"b":[1,2,3,4]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("short A: status %d, want 400", resp2.StatusCode)
	}

	var st Stats
	resp3, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if err := json.NewDecoder(resp3.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.Rejected != 1 {
		t.Fatalf("stats = %+v, want 1 request and 1 rejection", st)
	}

	if resp4, err := http.Get(srv.URL + "/healthz"); err != nil || resp4.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp4.StatusCode, err)
	}
}

func TestHTTPDrainingStatus(t *testing.T) {
	s := newTestServer(t, Options{})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(MultiplyRequest{M: 2, N: 2, K: 2, A: []float64{1, 2, 3, 4}, B: []float64{1, 2, 3, 4}})
	resp, err := http.Post(srv.URL+"/v1/multiply", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("503 carries no Retry-After header")
	}
	if hz, err := http.Get(srv.URL + "/healthz"); err != nil || hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %v %v", hz.StatusCode, err)
	}
}

// TestHTTPDeadlineHeader proves the X-Cosma-Deadline-Ms budget
// propagates: a budget shorter than the (slowed) execution expires while
// the request waits for its batch and maps to 504; a malformed value is
// a 400; a budget past the longest time.Duration is no budget at all,
// not one that wrapped around to a deadline already passed.
func TestHTTPDeadlineHeader(t *testing.T) {
	s := newTestServer(t, Options{Engine: slowEngine(150 * time.Millisecond)})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()

	post := func(deadline string) int {
		t.Helper()
		body, _ := json.Marshal(MultiplyRequest{M: 2, N: 2, K: 2, A: []float64{1, 2, 3, 4}, B: []float64{1, 2, 3, 4}})
		req, err := http.NewRequest("POST", srv.URL+"/v1/multiply", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if status := post("20"); status != http.StatusGatewayTimeout {
		t.Fatalf("20ms budget against a 150ms execution: status %d, want 504", status)
	}
	if status := post("not-a-number"); status != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", status)
	}
	if status := post("30000"); status != http.StatusOK {
		t.Fatalf("generous budget: status %d, want 200", status)
	}
	for _, ms := range []string{"9300000000000", strconv.Itoa(math.MaxInt64)} {
		if status := post(ms); status != http.StatusOK {
			t.Fatalf("%s ms budget: status %d, want 200", ms, status)
		}
	}
}

// TestHandlerRecyclesOperands: a warm request through Handler allocates
// less than a quarter of its product's size. The operands are decoded
// into machine pool buffers that their batch gives back, and the product
// is a pool loan the handler gives back once it is encoded, so what a
// request allocates is the bookkeeping around them. It runs on one P:
// sync.Pool caches per P, and with several a buffer one P gave back can
// be out of another's reach, which measures the scheduler rather than
// the handler.
func TestHandlerRecyclesOperands(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of its puts")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const dim, warm, reqs = 96, 5, 50
	s := newTestServer(t, Options{Shards: 1})
	h := Handler(s)
	a, b := cosma.RandomMatrix(dim, dim, 1), cosma.RandomMatrix(dim, dim, 2)
	body, _ := json.Marshal(MultiplyRequest{M: dim, N: dim, K: dim, A: a.Data, B: b.Data})
	post := func() {
		w := countingWriter{header: http.Header{}}
		h.ServeHTTP(&w, httptest.NewRequest(http.MethodPost, "/v1/multiply", bytes.NewReader(body)))
		if w.status != 0 && w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	}
	for range warm {
		post()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reqs {
		post()
	}
	runtime.ReadMemStats(&after)
	quarter := uint64(dim * dim * 8 / 4)
	if perReq := (after.TotalAlloc - before.TotalAlloc) / reqs; perReq >= quarter {
		t.Fatalf("%d B allocated per warm %d³ request, not below a quarter of its product, %d B", perReq, dim, quarter)
	}
}

// TestAbandonedRequestsKeepOperandsUntilBatchReturns: a request that
// gives up with 504 leaves its operands to its batch, which is still
// reading them. Requests of two shapes whose operands share a pool size
// class run at once, with a fallback body and a refused one among them,
// so a buffer given back too early — or twice — would be decoded into
// while a batch reads it (a race) or handed to two requests (a wrong
// product).
func TestAbandonedRequestsKeepOperandsUntilBatchReturns(t *testing.T) {
	s := newTestServer(t, Options{Engine: slowEngine(10 * time.Millisecond)})
	srv := httptest.NewServer(Handler(s))
	defer srv.Close()
	eng, err := cosma.NewEngine(cosma.WithProcs(4), cosma.WithMemory(1<<14))
	if err != nil {
		t.Fatal(err)
	}

	type job struct {
		body     []byte
		deadline string
		want     *cosma.Matrix // nil: refused with 400
	}
	var jobs []job
	for i := range 36 {
		m, n, k := 24, 24, 24 // 576-word operands, pooled as 1024
		if i%2 == 1 {
			m, n, k = 20, 28, 32 // 640 and 896 words: the same class
		}
		a, b := cosma.RandomMatrix(m, k, int64(i)), cosma.RandomMatrix(k, n, int64(100+i))
		want, _, err := eng.Exec(context.Background(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		j := job{want: want}
		if i%2 == 0 && i%4 != 0 {
			j.deadline = "5" // shorter than one slowed round: 504
		}
		req := MultiplyRequest{M: m, N: n, K: k, A: a.Data, B: b.Data}
		if i%9 == 4 { // a length mismatch, found after both arrays are scanned
			req.A, j.want = req.A[1:], nil
		}
		j.body, _ = json.Marshal(req)
		if i%9 == 8 { // an upper-case key after A: scanned, then left to encoding/json
			j.body = bytes.Replace(j.body, []byte(`"b":`), []byte(`"B":`), 1)
		}
		jobs = append(jobs, j)
	}

	var wg sync.WaitGroup
	for wave := 0; wave < len(jobs); wave += 12 {
		for _, j := range jobs[wave : wave+12] {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/multiply", bytes.NewReader(j.body))
				if err != nil {
					t.Error(err)
					return
				}
				if j.deadline != "" {
					req.Header.Set(DeadlineHeader, j.deadline)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out MultiplyResponse
				json.NewDecoder(resp.Body).Decode(&out)
				switch {
				case j.want == nil:
					if resp.StatusCode != http.StatusBadRequest {
						t.Errorf("length mismatch: status %d, want 400", resp.StatusCode)
					}
				case j.deadline != "":
					if resp.StatusCode != http.StatusGatewayTimeout {
						t.Errorf("5 ms budget: status %d, want 504", resp.StatusCode)
					}
				case resp.StatusCode != http.StatusOK:
					t.Errorf("status %d, want 200", resp.StatusCode)
				case !sameBits(out.C, j.want.Data):
					t.Errorf("%d×%d answer differs from a direct Engine.Exec", out.M, out.N)
				}
			}()
		}
		time.Sleep(15 * time.Millisecond) // the next wave decodes while this one's batches run
	}
	wg.Wait()
	waitQueued(t, s, 0)
}

// sameBits compares two products bit for bit.
func sameBits(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return false
		}
	}
	return true
}

// TestEngineFailureIs500 separates whose fault a failed request is: an
// engine that dies under a well-formed request answers 500 (a retrying
// client must not be told 400, "never retry"), while a request the
// server refuses for what it asks is still 400 and an expired
// X-Cosma-Deadline-Ms budget still 504.
func TestEngineFailureIs500(t *testing.T) {
	base := []cosma.Option{cosma.WithProcs(4), cosma.WithMemory(1 << 14)}
	shape := func(m, n, k int) []byte {
		body, _ := json.Marshal(MultiplyRequest{M: m, N: n, K: k, A: make([]float64, m*k), B: make([]float64, k*n)})
		return body
	}
	cases := []struct {
		name     string
		opts     Options
		body     []byte
		deadline string
		want     int
	}{
		{"rank death", Options{Engine: append(base[:2:2],
			cosma.WithFaultPlan(cosma.FaultPlan{Deaths: []cosma.RankDeath{{Rank: 1, Round: 0}}}))},
			shape(4, 4, 4), "", http.StatusInternalServerError},
		{"oversized shape", Options{Engine: base, MaxDim: 2}, shape(4, 4, 4), "", http.StatusBadRequest},
		{"unschedulable shape", Options{Engine: append(base[:2:2], cosma.WithAlgorithm("summa"))},
			shape(1, 3, 3), "", http.StatusBadRequest},
		{"expired deadline", Options{Engine: slowEngine(150 * time.Millisecond)},
			shape(4, 4, 4), "20", http.StatusGatewayTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(Handler(newTestServer(t, tc.opts)))
			defer srv.Close()
			req, err := http.NewRequest("POST", srv.URL+"/v1/multiply", bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			if tc.deadline != "" {
				req.Header.Set(DeadlineHeader, tc.deadline)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var msg errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.want, msg.Error)
			}
		})
	}
}

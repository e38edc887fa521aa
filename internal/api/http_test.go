package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestWriteJobIsMarshalPlusNewline(t *testing.T) {
	result, err := json.Marshal(map[string]any{"Reports": []string{"a<b>&c", " "}, "N": 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, resp := range []JobResponse{
		{JobID: "job-1", Status: "done", CacheKey: "ab", Cached: true, Elapsed: 0.25, Result: result},
		{JobID: "job-2", Status: "done", Result: json.RawMessage(`{}`)},
		{JobID: "job-3", Status: "failed", Error: "parse: <eof>"},
		{Status: "queued"},
	} {
		rec := httptest.NewRecorder()
		WriteJob(rec, http.StatusOK, resp)
		want, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("WriteJob(%+v) =\n%s\nwant\n%s", resp, got, want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Errorf("Content-Length %s for a %d-byte body", cl, len(want))
		}
	}
}

func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]float64{"x": math.NaN()})
	var e ErrorResponse
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
		t.Errorf("status %d, body %q; want 500 with the error envelope", rec.Code, rec.Body.Bytes())
	}
}

// TestReadBody covers the shared bounded reader: a body of known and of
// unknown length, one that turns out too long, one whose declared length
// is already too long, which must neither pass nor be buffered at its
// declared size, and the daemons' real case: a 16-MiB limit and a client
// that declares a body of that size but sends a few bytes, which must not
// buy it a buffer anywhere near the limit.
func TestReadBody(t *testing.T) {
	read := func(body string, contentLength, limit int64) (*httptest.ResponseRecorder, []byte, bool) {
		r := httptest.NewRequest(http.MethodPost, "/v1/analyze", io.NopCloser(strings.NewReader(body)))
		r.ContentLength = contentLength
		rec := httptest.NewRecorder()
		got, ok := ReadBody(rec, r, limit)
		return rec, got, ok
	}
	const limit = 4096
	for _, cl := range []int64{3000, -1} {
		body := strings.Repeat("x", 3000)
		if rec, got, ok := read(body, cl, limit); !ok || string(got) != body {
			t.Errorf("Content-Length %d: ok %v, %d bytes, status %d", cl, ok, len(got), rec.Code)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, cl := range []int64{-1, 1 << 40} {
		rec, _, ok := read(strings.Repeat("x", 2*limit), cl, limit)
		var e ErrorResponse
		if ok || rec.Code != http.StatusRequestEntityTooLarge ||
			json.Unmarshal(rec.Body.Bytes(), &e) != nil || !strings.Contains(e.Error, "4096") {
			t.Errorf("Content-Length %d over the limit: ok %v, status %d, body %q", cl, ok, rec.Code, rec.Body.Bytes())
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("refusing two oversized bodies allocated %d bytes", n)
	}

	const daemonLimit = 16 << 20
	runtime.ReadMemStats(&before)
	rec, got, ok := read(`{"source":"x"}`, daemonLimit, daemonLimit)
	runtime.ReadMemStats(&after)
	if !ok || string(got) != `{"source":"x"}` {
		t.Fatalf("short body declared at the limit: ok %v, body %q, status %d", ok, got, rec.Code)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 2*maxPresize {
		t.Errorf("reading a %d-byte body declared at %d bytes allocated %d bytes", len(got), daemonLimit, n)
	}
	// A body as long as it declared, past the presize, still reads whole.
	body := strings.Repeat("y", 3*maxPresize)
	if rec, got, ok := read(body, int64(len(body)), daemonLimit); !ok || string(got) != body {
		t.Errorf("%d-byte body: ok %v, read %d bytes, status %d", len(body), ok, len(got), rec.Code)
	}
}

// TestNewServerClosesSlowHeader: a client that sends half a header and
// then stalls has its connection closed once the header timeout passes.
func TestNewServerClosesSlowHeader(t *testing.T) {
	hs := NewServer(http.NotFoundHandler())
	hs.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/analyze HTTP/1.1\r\nHost: x\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	t0 := time.Now()
	// The server may answer 408 before closing; read until it closes.
	_, err = io.Copy(io.Discard, conn)
	if err != nil || time.Since(t0) > 5*time.Second {
		t.Fatalf("connection still open after %v: %v", time.Since(t0), err)
	}
}

// serveTest serves h through NewServer on a loopback port and returns
// its address.
func serveTest(t *testing.T, h http.Handler) string {
	t.Helper()
	hs := NewServer(h)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	t.Cleanup(func() { hs.Close() })
	return ln.Addr().String()
}

// shortBodyTimeout shortens ReadBody's deadline for one test.
func shortBodyTimeout(t *testing.T) {
	old := bodyReadTimeout
	bodyReadTimeout = 100 * time.Millisecond
	t.Cleanup(func() { bodyReadTimeout = old })
}

// TestBodyDeadlineEndsWithTheRead: once ReadBody has read the body, a
// handler that outlives the body deadline still has its request context
// and answers, as a synchronous analysis or a router walk must.
func TestBodyDeadlineEndsWithTheRead(t *testing.T) {
	shortBodyTimeout(t)
	addr := serveTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := ReadBody(w, r, 1<<20); !ok {
			return
		}
		select {
		case <-r.Context().Done():
			WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: "context cancelled"})
		case <-time.After(5 * bodyReadTimeout):
			WriteJSON(w, http.StatusOK, ErrorResponse{})
		}
	}))
	resp, err := http.Post("http://"+addr, "application/json", strings.NewReader(`{"source":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 200", resp.StatusCode, b)
	}
}

// TestReadBodyTimesOutSlowBody: a client that sends the headers and part
// of the body and then stalls is answered 400 once the body deadline
// passes, not held until it finishes.
func TestReadBodyTimesOutSlowBody(t *testing.T) {
	shortBodyTimeout(t)
	addr := serveTest(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := ReadBody(w, r, 1<<20); ok {
			WriteJSON(w, http.StatusOK, ErrorResponse{})
		}
	}))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST / HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n0123456789")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("stalled body: status %d, want 400", resp.StatusCode)
	}
}

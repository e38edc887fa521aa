package api

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
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

package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

// The connection timeouts. A client that trickles a request holds a
// connection and up to maxPresize of body buffer, so every read is
// bounded: the headers must arrive within readHeaderTimeout, and the body,
// read by ReadBody, within bodyReadTimeout, which leaves a 16-MiB body
// (the daemons' default limit) about 134 s at 1 Mbit/s. The server sets
// no ReadTimeout: that deadline covers the whole request, so a handler
// still waiting on r.Context() when it passes could lose the request to
// it. ReadBody instead sets the deadline for the read alone and clears it
// afterwards, and with no write timeout either, a synchronous analysis or
// a router walk runs as long as its own deadline allows.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// bodyReadTimeout bounds ReadBody's read. A variable only so tests can
// shorten it.
var bodyReadTimeout = 3 * time.Minute

// NewServer returns the http.Server both daemons serve h with.
func NewServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// WriteJSON answers status with v as compact JSON: json.Marshal's bytes
// and a newline. Both daemons write every JSON answer through it or, for
// a job answer, through WriteJob. A value that does not encode is answered
// 500 with the error envelope.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = json.Marshal(ErrorResponse{Error: "encoding response: " + err.Error()})
	}
	writeBody(w, status, b, []byte("\n"))
}

// resultField joins a job answer's envelope to its result.
var resultField = []byte(`,"result":`)

// WriteJob answers status with resp, byte for byte as WriteJSON would,
// but without running resp.Result through the encoder: Result is the
// stored json.Marshal encoding of a canary.Result, which the encoder
// would only check and copy again. The rest of resp is marshalled, and
// since result is its last field the stored bytes go in just before the
// envelope's closing brace.
func WriteJob(w http.ResponseWriter, status int, resp JobResponse) {
	result := resp.Result
	resp.Result = nil
	env, err := json.Marshal(resp)
	if err != nil || len(result) == 0 {
		resp.Result = result
		WriteJSON(w, status, resp)
		return
	}
	writeBody(w, status, env[:len(env)-1], resultField, result, []byte("}\n"))
}

// writeBody answers status with the concatenated parts as a JSON body of
// known length.
func writeBody(w http.ResponseWriter, status int, parts ...[]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(status)
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return // the client went away; nothing to do
		}
	}
}

// maxPresize caps the buffer ReadBody allocates on the word of the
// Content-Length header alone. A body past it grows the buffer only as
// its bytes arrive, so a client that declares a large body and sends
// little pins no more than this. It is far above a typical request
// (serve-mixed's programs are about 60 KB).
const maxPresize = 1 << 20

// ReadBody reads r's body, at most limit bytes of it and within
// bodyReadTimeout, into one buffer sized from the Content-Length header
// (never above limit or maxPresize). A body over the limit is answered 413
// and an unreadable or late one 400, both with the error envelope; ok is
// then false and the request is answered.
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) (body []byte, ok bool) {
	// A writer without deadlines (a test's recorder) reads unbounded.
	rc := http.NewResponseController(w)
	rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	size := int64(512) // io.ReadAll's first buffer, for a body of unknown length
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, limit, maxPresize)
	}
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), int(size))
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			WriteJSON(w, http.StatusRequestEntityTooLarge,
				ErrorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
		} else {
			WriteJSON(w, http.StatusBadRequest,
				ErrorResponse{Error: "reading request body: " + err.Error()})
		}
		// The deadline stays: net/http drains what is left of a failed
		// body before it answers, and must not wait on a stalled client.
		return nil, false
	}
	rc.SetReadDeadline(time.Time{})
	return body, true
}

// readAll is io.ReadAll starting from a buffer of size bytes plus one, so
// a body of exactly size bytes reads to EOF without growing it.
func readAll(rd io.Reader, size int) ([]byte, error) {
	b := make([]byte, 0, size+1)
	for {
		n, err := rd.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				err = nil
			}
			return b, err
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

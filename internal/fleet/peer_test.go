package fleet

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"canary/internal/cache"
)

// TestPeerFetchSkipsDownOwner: a fetch does not call an owner that the
// liveness view holds down, and abandons one in flight when its owner
// turns down, instead of waiting out the fetch timeout.
func TestPeerFetchSkipsDownOwner(t *testing.T) {
	var calls atomic.Int64
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // frozen: never answers
	}))
	defer owner.Close()
	const self = "http://self.invalid"
	p := NewPeerClient(self, time.Minute)
	p.SetPeers([]string{owner.URL, self})
	var down atomic.Bool
	p.SkipDown(func(o string) bool { return o == owner.URL && down.Load() })

	// A key the frozen owner holds.
	var key cache.Key
	for i := 0; p.Owner(key) != owner.URL; i++ {
		key[0], key[1] = byte(i), byte(i>>8)
	}

	time.AfterFunc(100*time.Millisecond, func() { down.Store(true) })
	t0 := time.Now()
	if _, ok := p.Fetch("result", key); ok {
		t.Fatal("a frozen owner served a hit")
	}
	if elapsed := time.Since(t0); elapsed > 10*time.Second || calls.Load() != 1 {
		t.Fatalf("in-flight fetch: %v, %d calls", elapsed, calls.Load())
	}
	if _, ok := p.Fetch("result", key); ok || calls.Load() != 1 {
		t.Fatalf("a down owner was called: %d calls", calls.Load())
	}
}

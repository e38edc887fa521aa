package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"canary/internal/cache"
	"canary/internal/diskstore"
	"canary/internal/failpoint"
	"canary/internal/fleet/singleflight"
)

// MaxPeerEntryBytes bounds a peer cache response body. An honest peer
// never sends more than one analysis result or warm-store entry; a
// hostile or broken one claiming gigabytes is cut off at the limit and
// treated as a miss, so a peer can cost a worker bandwidth but never
// memory.
const MaxPeerEntryBytes = 64 << 20

// DecodePeerEntry validates a peer cache response: the diskstore entry
// framing verbatim (magic header, payload, SHA-256 checksum trailer),
// after a length guard. Any hostile shape — truncated frame, oversized
// body, corrupted payload — returns ok=false; the function never panics
// and allocates nothing beyond the checksum computation.
func DecodePeerEntry(b []byte) (payload []byte, ok bool) {
	if len(b) > MaxPeerEntryBytes {
		return nil, false
	}
	return diskstore.DecodeEntry(b)
}

// PeerStats is a point-in-time snapshot of a PeerClient's counters.
type PeerStats struct {
	// Fetches counts owner lookups that actually went to the network
	// (self-owned keys never do).
	Fetches uint64 `json:"fetches"`
	// Hits are fetches answered with a verified entry.
	Hits uint64 `json:"hits"`
	// Misses are clean 404s — the owner simply has not computed the key.
	Misses uint64 `json:"misses"`
	// Errors are transport failures, hostile bodies, and injected
	// peer-fetch faults; all degrade to local compute.
	Errors uint64 `json:"errors"`
	// Coalesced counts fetches answered by another in-flight fetch of the
	// same (namespace, key) instead of a second network call.
	Coalesced uint64 `json:"coalesced"`
}

// PeerClient is a worker's view of its fleet for the peer cache tier:
// before computing a missed key, ask the key's shard owner whether it
// already holds the bytes. Every failure mode degrades to a miss — the
// caller computes locally — so a broken peer can cost latency, never
// correctness.
type PeerClient struct {
	ring atomic.Pointer[Ring]
	self string
	hc   *http.Client
	// down, when set, reports an owner this node's liveness view does
	// not hold alive: a suspect owner is not asked, and a fetch is
	// abandoned when its owner turns suspect, for a frozen process would
	// hold it for its whole timeout.
	down func(owner string) bool

	flight  singleflight.Group[peerKey, []byte]
	fetches atomic.Uint64
	hits    atomic.Uint64
	misses  atomic.Uint64
	errors  atomic.Uint64
}

type peerKey struct {
	ns  string
	key cache.Key
}

// NewPeerClient builds a client for the node whose member URL is self.
// Its ring starts with just that node (every fetch a local no-op) and
// grows as SetPeers delivers the members gossip discovers. timeout
// bounds each fetch; <= 0 selects 2 seconds — peer fetches race local
// compute measured in hundreds of milliseconds, so they must fail fast.
func NewPeerClient(self string, timeout time.Duration) *PeerClient {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	p := &PeerClient{
		self: self,
		hc:   &http.Client{Timeout: timeout},
	}
	p.ring.Store(NewRing([]string{self}))
	return p
}

// SkipDown makes Fetch treat a key whose owner down reports as a miss
// without calling it. Set it before the first Fetch.
func (p *PeerClient) SkipDown(down func(owner string) bool) { p.down = down }

// Ring returns the client's current membership view.
func (p *PeerClient) Ring() *Ring { return p.ring.Load() }

// SetPeers atomically replaces the member set (base URLs, this node's
// own included): a gossip event rebuilds the ring and every in-flight
// Fetch keeps the ring it started with. Shard ownership moves minimally
// (rendezvous hashing), and a briefly stale ring only costs a miss or a
// fetch from a node that recomputes — never wrong bytes.
func (p *PeerClient) SetPeers(peers []string) { p.ring.Store(NewRing(peers)) }

// Owner returns the shard owner of key under the fleet's ring.
func (p *PeerClient) Owner(key cache.Key) string { return p.Ring().Owner(key) }

// Fetch asks key's shard owner for the entry under ns. It returns a miss
// without touching the network when this node is the owner (there is no
// better copy than our own), when the owner is down (see SkipDown), when
// the peer-fetch failpoint fires, and on every transport or framing
// failure. Identical concurrent fetches
// coalesce into one network call.
func (p *PeerClient) Fetch(ns string, key cache.Key) ([]byte, bool) {
	owner := p.Owner(key)
	if owner == "" || owner == p.self || (p.down != nil && p.down(owner)) {
		return nil, false
	}
	if failpoint.Inject(failpoint.SitePeerFetch) != nil {
		p.errors.Add(1)
		return nil, false
	}
	v, err, _ := p.flight.Do(peerKey{ns: ns, key: key}, func() ([]byte, error) {
		return p.fetchFrom(owner, ns, key)
	})
	if err != nil || v == nil {
		return nil, false
	}
	return v, true
}

// errPeerMiss marks a clean 404 so the counters can split misses from
// transport errors.
var errPeerMiss = fmt.Errorf("peer miss")

// fetchFrom performs one GET /v1/cache/{ns}/{key} against a peer and
// validates the framed response.
func (p *PeerClient) fetchFrom(owner, ns string, key cache.Key) ([]byte, error) {
	p.fetches.Add(1)
	ctx, cancel := context.WithCancel(context.Background())
	if p.down != nil {
		ctx, cancel = cancelWhen(ctx, func() bool { return p.down(owner) })
	}
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/cache/"+ns+"/"+key.String(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.hc.Do(req)
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		p.misses.Add(1)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<10))
		return nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		p.errors.Add(1)
		return nil, fmt.Errorf("peer %s: %s", owner, resp.Status)
	}
	// Read one byte past the cap so an oversized body is distinguishable
	// from one that exactly fills it.
	b, err := io.ReadAll(io.LimitReader(resp.Body, MaxPeerEntryBytes+1))
	if err != nil {
		p.errors.Add(1)
		return nil, err
	}
	payload, ok := DecodePeerEntry(b)
	if !ok {
		p.errors.Add(1)
		return nil, fmt.Errorf("peer %s: invalid entry framing", owner)
	}
	p.hits.Add(1)
	return payload, nil
}

// Stats returns the cumulative counters.
func (p *PeerClient) Stats() PeerStats {
	return PeerStats{
		Fetches:   p.fetches.Load(),
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Errors:    p.errors.Load(),
		Coalesced: p.flight.Dups(),
	}
}

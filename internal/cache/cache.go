// Package cache implements a bounded, concurrency-safe, content-addressed
// byte store: values are keyed by a SHA-256 digest of their inputs, so a
// key fully determines its value and entries never need invalidation —
// only eviction. canaryd fronts the analysis pipeline with one of these,
// keyed by canary.SubmissionKey, so repeated submissions of the same
// (source, options) pair are served without re-running the analysis, and
// served byte-identically to the cold run.
package cache

import (
	"container/list"
	"encoding/hex"
	"sync"
	"sync/atomic"

	"canary/internal/failpoint"
)

// Key is a SHA-256 content address.
type Key [32]byte

// String renders the key as lowercase hex (the job API's cache_key field).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ByteStore is the contract every content-addressed byte store in the
// system satisfies: the in-memory Store here, diskstore's persistent
// Namespace, and the Tiered combination of the two. Because a Key fully
// determines its value, any implementation is free to degrade any
// operation to a miss (never to a wrong value), which is what lets the
// warm stores swap backends without changing their semantics.
type ByteStore interface {
	// Get returns the value stored under k; the returned slice is shared
	// and must not be modified.
	Get(k Key) ([]byte, bool)
	// Put stores v under k. Implementations may copy v, drop the write,
	// or defer it — a reader either sees exactly v or a miss.
	Put(k Key, v []byte)
	// Delete removes k, reporting whether it was present in any tier.
	Delete(k Key) bool
	// Stats returns the cumulative hit and miss counts of Get.
	Stats() (hits, misses uint64)
	// Len returns the number of stored values (for tiered stores, of the
	// tier that bounds in-process footprint).
	Len() int
}

// Store is a bounded LRU map from content keys to immutable byte values.
// All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	max     int

	hits   atomic.Uint64
	misses atomic.Uint64
}

type entry struct {
	key Key
	val []byte
}

// DefaultMaxEntries bounds a Store built with New(0).
const DefaultMaxEntries = 4096

// New returns an empty store holding at most maxEntries values
// (<= 0 means DefaultMaxEntries). The least-recently-used entry is evicted
// when the bound is exceeded.
func New(maxEntries int) *Store {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	return &Store{
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		max:     maxEntries,
	}
}

// Get returns the value stored under k. The returned slice is shared and
// must not be modified; a content-addressed value is immutable by
// construction. The lookup is counted as a hit or a miss.
func (s *Store) Get(k Key) ([]byte, bool) {
	// An injected read fault degrades to a miss: content addressing makes
	// a miss always safe (the value is recomputed), never wrong.
	if failpoint.Inject(failpoint.SiteCacheRead) != nil {
		s.misses.Add(1)
		return nil, false
	}
	s.mu.Lock()
	el, ok := s.entries[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return el.Value.(*entry).val, true
}

// Put stores v under k, copying v so later caller mutations cannot alias
// into the store. Re-putting an existing key refreshes its recency but
// keeps the first value: under content addressing both values are
// byte-identical, and keeping the first preserves any slice already handed
// out by Get.
func (s *Store) Put(k Key, v []byte) {
	// An injected write fault skips the store: the entry simply stays
	// cold, which a content-addressed cache tolerates by construction.
	if failpoint.Inject(failpoint.SiteCacheWrite) != nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		return
	}
	cp := append([]byte(nil), v...)
	s.entries[k] = s.lru.PushFront(&entry{key: k, val: cp})
	for s.lru.Len() > s.max {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
	}
}

// Delete removes the value stored under k, reporting whether it was
// present. Quarantine uses this to evict per-function summaries that a
// recovered panic may have left half-built.
func (s *Store) Delete(k Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[k]
	if !ok {
		return false
	}
	s.lru.Remove(el)
	delete(s.entries, k)
	return true
}

// Stats returns the cumulative hit and miss counts of Get.
func (s *Store) Stats() (hits, misses uint64) {
	return s.hits.Load(), s.misses.Load()
}

// Len returns the number of stored values.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Package diskstore implements a content-addressed on-disk byte store:
// the persistent backend under the in-memory warm stores (per-function
// pta summaries, canaryd's result cache), so a
// fresh process pointed at a populated directory starts warm.
//
// The design leans entirely on content addressing: a cache.Key fully
// determines its value, so the store never returns a stale entry — only
// a present or an absent one — and every failure mode (unreadable file,
// short write, bit rot, crash mid-write, concurrent eviction) is allowed
// to degrade to a miss, which is always safe (the value is recomputed)
// and never wrong. Concretely:
//
//   - entries live at <root>/<namespace>/<hex[:2]>/<hex>, sharded by the
//     first key byte so no directory grows unboundedly (the layout of
//     staticcheck's lintcmd/cache);
//   - writes go to a temp file in <root> and are renamed into place, so
//     a reader only ever observes absent or complete files;
//   - every entry carries a magic header and a SHA-256 checksum trailer;
//     a failed verification deletes the file and reports a miss;
//   - the store is size-capped: when the byte total exceeds the cap, the
//     least-recently-accessed entries (by file mtime, refreshed on every
//     hit) are evicted until the total is back under a low-water mark.
//
// All methods are safe for concurrent use by multiple goroutines, and
// the on-disk format is safe for concurrent use by multiple processes
// sharing one directory: renames are atomic, and a reader racing an
// eviction simply misses.
package diskstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canary/internal/cache"
	"canary/internal/failpoint"
)

// DefaultMaxBytes caps a store opened with maxBytes <= 0.
const DefaultMaxBytes = 1 << 30 // 1 GiB

// gcLowWater is the fraction of the cap GC shrinks the store to, so one
// overflow does not trigger an eviction per subsequent write.
const gcLowWater = 0.9

// entryMagic is the header of every entry file; a file without it (a
// different format version, or not ours at all) decodes as corrupt.
const entryMagic = "cnrydsk1"

// checksumLen is the length of the SHA-256 trailer.
const checksumLen = sha256.Size

// tmpPrefix names in-flight temp files; Open sweeps leftovers from
// crashed writers, and the GC walk skips them.
const tmpPrefix = "tmp-"

// Store is a size-capped content-addressed directory of checksummed
// entry files. Values are accessed through per-namespace handles (NS);
// size accounting, GC, and the write path are shared across namespaces.
type Store struct {
	root     string
	maxBytes int64

	size    atomic.Int64 // bytes of entry files currently on disk
	entries atomic.Int64 // entry files currently on disk
	writes  atomic.Uint64
	evicted atomic.Uint64

	nsMu sync.Mutex
	ns   map[string]*Namespace

	gcMu sync.Mutex // serializes GC sweeps
}

// Stats is a point-in-time snapshot of the store's counters, aggregated
// across namespaces.
type Stats struct {
	Hits           uint64 `json:"hits"`
	Misses         uint64 `json:"misses"`
	Writes         uint64 `json:"writes"`
	CorruptEntries uint64 `json:"corrupt_entries"`
	GCEvictions    uint64 `json:"gc_evictions"`
	Bytes          int64  `json:"bytes"`
	Entries        int64  `json:"entries"`
}

// Open creates (or reopens) the store rooted at dir, bounded to maxBytes
// of entry data (<= 0 selects DefaultMaxBytes). Reopening walks the
// directory once to rebuild the size accounting and sweeps temp files
// left by crashed writers.
func Open(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{root: dir, maxBytes: maxBytes, ns: make(map[string]*Namespace)}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // a vanished or unreadable entry is just absent
		}
		if strings.HasPrefix(d.Name(), tmpPrefix) {
			os.Remove(path) // leftover from a crashed writer
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			s.size.Add(info.Size())
			s.entries.Add(1)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return s, nil
}

// Root returns the store's directory.
func (s *Store) Root() string { return s.root }

// MaxBytes returns the effective size cap.
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// NS returns the named namespace handle, creating it on first use.
// Namespaces partition the key space (the same key can hold different
// values under different namespaces) and carry their own hit/miss
// counters; the size cap and GC span all of them.
func (s *Store) NS(name string) *Namespace {
	s.nsMu.Lock()
	defer s.nsMu.Unlock()
	if n, ok := s.ns[name]; ok {
		return n
	}
	n := &Namespace{s: s, name: name}
	s.ns[name] = n
	return n
}

// Stats aggregates the per-namespace counters with the store-wide size
// accounting.
func (s *Store) Stats() Stats {
	st := Stats{
		Writes:      s.writes.Load(),
		GCEvictions: s.evicted.Load(),
		Bytes:       s.size.Load(),
		Entries:     s.entries.Load(),
	}
	s.nsMu.Lock()
	for _, n := range s.ns {
		st.Hits += n.hits.Load()
		st.Misses += n.misses.Load()
		st.CorruptEntries += n.corrupt.Load()
	}
	s.nsMu.Unlock()
	return st
}

// EncodeEntry frames a value in the on-disk entry format: magic header,
// payload, SHA-256 checksum trailer.
func EncodeEntry(v []byte) []byte {
	buf := make([]byte, 0, len(entryMagic)+len(v)+checksumLen)
	buf = append(buf, entryMagic...)
	buf = append(buf, v...)
	sum := sha256.Sum256(v)
	return append(buf, sum[:]...)
}

// DecodeEntry validates an entry file's framing and checksum, returning
// the payload. The payload aliases b. Garbage input of any shape returns
// ok=false; the function never panics and never allocates beyond the
// checksum computation.
func DecodeEntry(b []byte) (payload []byte, ok bool) {
	if len(b) < len(entryMagic)+checksumLen {
		return nil, false
	}
	if string(b[:len(entryMagic)]) != entryMagic {
		return nil, false
	}
	payload = b[len(entryMagic) : len(b)-checksumLen]
	sum := sha256.Sum256(payload)
	if string(sum[:]) != string(b[len(b)-checksumLen:]) {
		return nil, false
	}
	return payload, true
}

// Namespace is one named partition of a Store, implementing
// cache.ByteStore over the shared directory.
type Namespace struct {
	s    *Store
	name string

	hits    atomic.Uint64
	misses  atomic.Uint64
	corrupt atomic.Uint64
}

// Name returns the namespace's name.
func (n *Namespace) Name() string { return n.name }

func (n *Namespace) path(k cache.Key) string {
	h := hex.EncodeToString(k[:])
	return filepath.Join(n.s.root, n.name, h[:2], h)
}

// Get returns the value stored under k, verifying the entry's framing
// and checksum. Any IO error — including an injected disk-read fault —
// degrades to a miss; a corrupt entry (checksum mismatch, injected
// bit flip, truncation) additionally deletes the file so the slot heals
// to a clean miss.
func (n *Namespace) Get(k cache.Key) ([]byte, bool) {
	if failpoint.Inject(failpoint.SiteDiskRead) != nil {
		n.misses.Add(1)
		return nil, false
	}
	p := n.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		n.misses.Add(1)
		return nil, false
	}
	// The disk-corrupt failpoint models bit rot: it flips one payload bit
	// after the read, which the checksum trailer must catch.
	if failpoint.Inject(failpoint.SiteDiskCorrupt) != nil && len(b) > 0 {
		b[len(b)/2] ^= 0x40
	}
	v, ok := DecodeEntry(b)
	if !ok {
		n.corrupt.Add(1)
		n.misses.Add(1)
		n.removeFile(p)
		return nil, false
	}
	n.hits.Add(1)
	now := time.Now()
	os.Chtimes(p, now, now) // LRU clock; best-effort
	return v, true
}

// Put stores v under k via a temp-file write and an atomic rename, then
// triggers GC if the store exceeds its cap. A failed or injected write
// leaves the slot cold (a safe miss); re-putting an existing key only
// refreshes its access time, since under content addressing the bytes
// are already identical.
func (n *Namespace) Put(k cache.Key, v []byte) {
	if failpoint.Inject(failpoint.SiteDiskWrite) != nil {
		return
	}
	p := n.path(k)
	if _, err := os.Stat(p); err == nil {
		now := time.Now()
		os.Chtimes(p, now, now)
		return
	}
	enc := EncodeEntry(v)
	if err := os.MkdirAll(filepath.Dir(p), 0o777); err != nil {
		return
	}
	f, err := os.CreateTemp(n.s.root, tmpPrefix+"*")
	if err != nil {
		return
	}
	tmp := f.Name()
	_, werr := f.Write(enc)
	cerr := f.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return
	}
	n.s.writes.Add(1)
	n.s.entries.Add(1)
	if n.s.size.Add(int64(len(enc))) > n.s.maxBytes {
		n.s.gc()
	}
}

// GetRaw returns the raw framed entry bytes stored under k — exactly the
// bytes Put wrote (magic header, payload, checksum trailer), verified
// before return — so a peer cache response can ship the on-disk entry
// verbatim with no re-serialization. Counters and corruption healing
// behave exactly like Get.
func (n *Namespace) GetRaw(k cache.Key) ([]byte, bool) {
	if failpoint.Inject(failpoint.SiteDiskRead) != nil {
		n.misses.Add(1)
		return nil, false
	}
	p := n.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		n.misses.Add(1)
		return nil, false
	}
	if _, ok := DecodeEntry(b); !ok {
		n.corrupt.Add(1)
		n.misses.Add(1)
		n.removeFile(p)
		return nil, false
	}
	n.hits.Add(1)
	now := time.Now()
	os.Chtimes(p, now, now) // LRU clock; best-effort
	return b, true
}

// Delete removes the entry stored under k, reporting whether it was
// present. Quarantine reaches through the tiered store to here, so a
// poisoned summary cannot survive a restart.
func (n *Namespace) Delete(k cache.Key) bool {
	return n.removeFile(n.path(k))
}

// removeFile unlinks an entry file and keeps the size accounting exact;
// it is the single eviction primitive shared by Delete, corruption
// healing, and GC.
func (n *Namespace) removeFile(p string) bool {
	info, err := os.Stat(p)
	if err != nil {
		return false
	}
	if os.Remove(p) != nil {
		return false
	}
	n.s.size.Add(-info.Size())
	n.s.entries.Add(-1)
	return true
}

// Stats returns the namespace's cumulative hit and miss counts
// (cache.ByteStore).
func (n *Namespace) Stats() (hits, misses uint64) {
	return n.hits.Load(), n.misses.Load()
}

// Len counts the namespace's entries with a directory walk. It is a
// test and introspection helper, not a hot path.
func (n *Namespace) Len() int {
	count := 0
	filepath.WalkDir(filepath.Join(n.s.root, n.name), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && !strings.HasPrefix(d.Name(), tmpPrefix) {
			count++
		}
		return nil
	})
	return count
}

// gcEntry is one eviction candidate of a GC sweep.
type gcEntry struct {
	path  string
	size  int64
	atime time.Time
}

// gc evicts least-recently-accessed entries until the store is back
// under the low-water mark. Sweeps are serialized; a second caller
// observing the post-sweep size returns immediately.
func (s *Store) gc() {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	target := int64(float64(s.maxBytes) * gcLowWater)
	if s.size.Load() <= s.maxBytes {
		return
	}
	var all []gcEntry
	filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasPrefix(d.Name(), tmpPrefix) {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			all = append(all, gcEntry{path: path, size: info.Size(), atime: info.ModTime()})
		}
		return nil
	})
	sort.Slice(all, func(i, j int) bool {
		if !all[i].atime.Equal(all[j].atime) {
			return all[i].atime.Before(all[j].atime)
		}
		return all[i].path < all[j].path // deterministic tie-break
	})
	for _, e := range all {
		if s.size.Load() <= target {
			break
		}
		if os.Remove(e.path) == nil {
			s.size.Add(-e.size)
			s.entries.Add(-1)
			s.evicted.Add(1)
		}
	}
}

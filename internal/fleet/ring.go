// Package fleet turns a set of canaryd workers into one logical cache:
// a consistent-hash ring assigns every SubmissionKey a stable owner node,
// and a stateless HTTP router forwards each submission to its owner
// (failing over down the ring on worker errors), whose cache and
// in-flight table then answer every copy of the key.
//
// Everything rests on the determinism contract: a SubmissionKey fully
// determines the analysis result bytes, so any node may compute any key,
// routing is purely a cache-locality optimization, and the findings are
// byte-identical no matter how many nodes the fleet has or which of them
// answered.
package fleet

import (
	"hash/fnv"
	"sort"

	"canary/internal/cache"
)

// Ring is an immutable rendezvous-hash (highest-random-weight) view of a
// node set: every key independently ranks all nodes by a deterministic
// per-(node, key) score, its owner is the top-ranked node, and the rest of
// the ranking is the failover order. Rendezvous hashing gives the two
// properties the fleet needs with no virtual-node tuning:
//
//   - placement is a pure function of (node ID, key) — identical across
//     process restarts and across machines configured with the same node
//     list in any order;
//   - membership changes are minimally disruptive: removing a node moves
//     exactly the keys it owned (~1/N), adding one steals ~1/(N+1) from
//     the others, and no other key changes owner.
//
// A Ring never mutates; build a new one for a new node set. Health is a
// routing-time concern (skip unhealthy nodes in Replicas order), not a
// membership change, so routing stays stable across transient failures.
type Ring struct {
	nodes []string // sorted, deduplicated
}

// NewRing builds a ring over the given node IDs (the router uses worker
// base URLs). Order and duplicates are irrelevant: the node set alone
// determines placement.
func NewRing(nodes []string) *Ring {
	uniq := make(map[string]bool, len(nodes))
	r := &Ring{nodes: make([]string, 0, len(nodes))}
	for _, n := range nodes {
		if n != "" && !uniq[n] {
			uniq[n] = true
			r.nodes = append(r.nodes, n)
		}
	}
	sort.Strings(r.nodes)
	return r
}

// Nodes returns the member IDs in sorted order. The slice is a copy.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// score is the rendezvous weight of node for key: a 64-bit FNV-1a over
// the node ID, a separator, and the key bytes. FNV is stable across
// processes and platforms (unlike maphash), which is what makes placement
// survive restarts.
func score(node string, key cache.Key) uint64 {
	h := fnv.New64a()
	h.Write([]byte(node))
	h.Write([]byte{0})
	h.Write(key[:])
	return h.Sum64()
}

// Owner returns the node that owns key: the highest-scoring member, with
// the lexicographically smallest ID breaking (astronomically unlikely)
// score ties so the choice is still deterministic. Empty ring returns "".
func (r *Ring) Owner(key cache.Key) string {
	var best string
	var bestScore uint64
	for _, n := range r.nodes {
		s := score(n, key)
		if best == "" || s > bestScore || (s == bestScore && n < best) {
			best, bestScore = n, s
		}
	}
	return best
}

// Replicas returns all member nodes ranked for key — the owner first,
// then each successive failover candidate. The router walks this order
// when a worker errors.
func (r *Ring) Replicas(key cache.Key) []string {
	type ranked struct {
		node  string
		score uint64
	}
	rs := make([]ranked, len(r.nodes))
	for i, n := range r.nodes {
		rs[i] = ranked{node: n, score: score(n, key)}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].score != rs[j].score {
			return rs[i].score > rs[j].score
		}
		return rs[i].node < rs[j].node
	})
	out := make([]string, len(rs))
	for i, e := range rs {
		out[i] = e.node
	}
	return out
}

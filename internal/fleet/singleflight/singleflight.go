// Package singleflight provides duplicate-call suppression: concurrent
// calls for the same key share one execution and its result. A worker's
// peer cache tier uses it so that identical concurrent fetches of one
// key cost one network call.
//
// Unlike a cache, a Group retains nothing: the moment the shared call
// returns, the key is forgotten and the next caller starts a fresh one.
// Layering is therefore Get-cache-first, then Do.
package singleflight

import (
	"sync"
	"sync/atomic"
)

// call is one in-flight execution and its eventual result.
type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Group suppresses duplicate concurrent calls by key. The zero value is
// ready to use.
type Group[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*call[V]
	dups atomic.Uint64
}

// Do executes fn under key, unless an execution for key is already in
// flight, in which case it waits for that one and returns its result.
// shared reports whether the result came from another caller's execution.
// fn runs on the first caller's goroutine; a panic in fn propagates to
// that caller and leaves waiters to observe the panic as a completed call
// (the deferred completion still releases them, with the zero value and a
// nil error only if fn never assigned — callers treating results as
// content-addressed bytes must tolerate a zero value like any other miss).
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (val V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		g.dups.Add(1)
		<-c.done
		return c.val, c.err, true
	}
	c := &call[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Dups returns the cumulative number of calls answered by another
// caller's in-flight execution (the dedup counter the metrics expose).
func (g *Group[K, V]) Dups() uint64 { return g.dups.Load() }

// InFlight returns the number of keys currently executing.
func (g *Group[K, V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

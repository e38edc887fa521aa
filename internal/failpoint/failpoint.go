// Package failpoint is a build-tag-free deterministic fault-injection
// registry. Production code calls Inject(site) at a handful of named
// sites; the call is a single atomic load when no failpoint is armed.
// Tests (or the CANARY_FAILPOINTS environment variable) arm a site with
// an action spec and every registered fault then surfaces as a typed
// error, a recovered panic, or an injected delay — never as silent
// corruption — which the fault-injection suite relies on to prove the
// pipeline degrades instead of crashing.
//
// Spec grammar (one per site):
//
//	action   := "error" | "panic" | "sleep:" duration
//	spec     := action [ "@" N ]        // fire on every Nth hit (default 1)
//	env form := site "=" spec { ";" site "=" spec }
//
// Examples: "error", "panic@3", "sleep:50ms", and the env variable
// CANARY_FAILPOINTS="smt-solve=error;job-dequeue=sleep:400ms".
package failpoint

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canary/internal/pipeline"
)

// The registered sites. The names are owned by the pipeline stage
// registry — each site is pinned there to the stage it fires inside —
// and re-exported here as aliases so instrumented code keeps reading
// failpoint.SiteX. Sites() returns them all for exhaustive test sweeps.
const (
	SiteParse         = pipeline.SiteParse         // parse stage entry (runner-injected)
	SiteLower         = pipeline.SiteLower         // lower stage entry (runner-injected)
	SitePTAFixpoint   = pipeline.SitePTAFixpoint   // pta summary fixpoint, per round
	SiteBuildFixpoint = pipeline.SiteBuildFixpoint // VFG outer fixpoint, per iteration
	SiteGuardEval     = pipeline.SiteGuardEval     // guard assembly in checkCtx.validate
	SiteSMTSolve      = pipeline.SiteSMTSolve      // immediately before a real solver run
	SiteCacheRead     = pipeline.SiteCacheRead     // cache.Store.Get (fault → miss)
	SiteCacheWrite    = pipeline.SiteCacheWrite    // cache.Store.Put (fault → skip)
	SiteJobDequeue    = pipeline.SiteJobDequeue    // canaryd worker, after dequeue
	SiteDiskRead      = pipeline.SiteDiskRead      // diskstore entry read (fault → miss)
	SiteDiskWrite     = pipeline.SiteDiskWrite     // diskstore entry write (fault → stays cold)
	SiteDiskCorrupt   = pipeline.SiteDiskCorrupt   // diskstore read-side bit flip (checksum → miss)
)

// allSites derives from the registry. Package-level variable
// initialization runs before init(), so the CANARY_FAILPOINTS env hook
// always validates against the full list.
var allSites = pipeline.FailpointSites()

// ErrInjected is the sentinel wrapped by every injected error; callers
// and tests match it with errors.Is.
var ErrInjected = errors.New("failpoint: injected fault")

// Error is the typed error produced by an "error"-mode failpoint. It
// wraps ErrInjected and names the site that fired.
type Error struct{ Site string }

func (e *Error) Error() string { return "failpoint " + e.Site + ": injected fault" }
func (e *Error) Unwrap() error { return ErrInjected }

type action struct {
	kind  string        // "error" | "panic" | "sleep"
	sleep time.Duration // for kind == "sleep"
	every uint64        // fire on every Nth hit; >= 1
	hits  uint64        // guarded by mu
}

var (
	mu    sync.Mutex
	sites = map[string]*action{}
	hits  = map[string]uint64{} // total Inject calls per site, armed or not fired
	armed atomic.Int32          // fast path: number of armed sites
)

// The env hook runs at package init so that binaries (canaryd under the
// smoke test) can be fault-armed without any code change.
func init() { initEnv() }

func initEnv() {
	spec := os.Getenv("CANARY_FAILPOINTS")
	if spec == "" {
		return
	}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		site, act, ok := strings.Cut(part, "=")
		if !ok {
			continue // malformed entries are ignored, never fatal
		}
		_ = Enable(strings.TrimSpace(site), strings.TrimSpace(act))
	}
}

// Enable arms site with the given action spec. Unknown sites and
// malformed specs return an error and leave the registry unchanged.
func Enable(site, spec string) error {
	if !known(site) {
		return fmt.Errorf("failpoint: unknown site %q", site)
	}
	a, err := parseSpec(spec)
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	if _, on := sites[site]; !on {
		armed.Add(1)
	}
	sites[site] = a
	return nil
}

// Disable disarms site; it is a no-op when the site is not armed.
func Disable(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, on := sites[site]; on {
		delete(sites, site)
		armed.Add(-1)
	}
}

// Reset disarms every site and clears the hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(sites)))
	sites = map[string]*action{}
	hits = map[string]uint64{}
}

// Sites returns all registered site names, sorted.
func Sites() []string {
	out := append([]string(nil), allSites...)
	sort.Strings(out)
	return out
}

// Hits reports how many times Inject(site) has been reached since the
// last Reset, whether or not a fault fired.
func Hits(site string) uint64 {
	mu.Lock()
	defer mu.Unlock()
	return hits[site]
}

func known(site string) bool {
	for _, s := range allSites {
		if s == site {
			return true
		}
	}
	return false
}

func parseSpec(spec string) (*action, error) {
	every := uint64(1)
	if at := strings.LastIndexByte(spec, '@'); at >= 0 {
		n, err := strconv.ParseUint(spec[at+1:], 10, 64)
		if err != nil || n == 0 {
			return nil, fmt.Errorf("failpoint: bad hit modulus in %q", spec)
		}
		every = n
		spec = spec[:at]
	}
	switch {
	case spec == "error":
		return &action{kind: "error", every: every}, nil
	case spec == "panic":
		return &action{kind: "panic", every: every}, nil
	case strings.HasPrefix(spec, "sleep:"):
		d, err := time.ParseDuration(spec[len("sleep:"):])
		if err != nil || d < 0 {
			return nil, fmt.Errorf("failpoint: bad sleep duration in %q", spec)
		}
		return &action{kind: "sleep", sleep: d, every: every}, nil
	}
	return nil, fmt.Errorf("failpoint: unknown action %q", spec)
}

// Inject is the production hook. With nothing armed it is a single
// atomic load; with site armed it performs the configured action: an
// "error" spec returns *Error, "panic" panics with *Error, and "sleep"
// blocks for the configured duration and returns nil.
func Inject(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	hits[site]++
	a := sites[site]
	var fire bool
	var kind string
	var d time.Duration
	if a != nil {
		a.hits++
		fire = a.hits%a.every == 0
		kind, d = a.kind, a.sleep
	}
	mu.Unlock()
	if !fire {
		return nil
	}
	switch kind {
	case "error":
		return &Error{Site: site}
	case "panic":
		panic(&Error{Site: site})
	case "sleep":
		time.Sleep(d)
	}
	return nil
}

// Package membership implements the fleet's dynamic membership: a
// SWIM-lite heartbeat protocol where every node periodically exchanges
// its full member table with a few peers over POST /v1/gossip, applies
// suspect→dead timeouts to members it has not heard from, and uses
// incarnation numbers so a restarted (or wrongly suspected) node can
// refute stale claims about itself and rejoin cleanly.
//
// The protocol is deliberately availability-only: analysis results are
// content-addressed and deterministic, so membership change is purely a
// cache-locality and routing event. Two nodes briefly disagreeing about
// the member set can at worst compute a result twice — findings stay
// byte-identical either way, which is what
// the chaos harness (canary-bench -experiment chaos, run small by
// `make chaos-smoke`) proves under real SIGKILL/SIGSTOP/rejoin storms
// against the canaryd and canary-router binaries.
//
// Merge rules (per member, SWIM's precedence order):
//   - a higher incarnation always wins;
//   - at equal incarnation the worse state wins (dead > suspect > alive),
//     so a death claim propagates until the accused refutes it;
//   - only the member itself increments its incarnation. A node that
//     sees itself suspected or dead at incarnation >= its own adopts
//     incarnation+1 and re-advertises alive — the refutation then
//     out-ranks the stale claim everywhere it spreads.
//
// Direct evidence beats gossip: a successful exchange with a member
// marks it alive and refreshes its last-heard clock regardless of what
// third parties claim, so a paused-then-resumed node (SIGSTOP/SIGCONT)
// recovers without a restart.
package membership

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"canary/internal/api"
)

// State is a member's liveness state as this node believes it.
type State int

const (
	// Alive: heard from recently (directly or via fresh gossip).
	Alive State = iota
	// Suspect: silent past SuspectAfter — still routed, but on notice.
	// A paused process (SIGSTOP) lives here until it resumes or dies.
	Suspect
	// Dead: silent past DeadAfter, or declared dead by gossip at a
	// winning incarnation. Removed from rings until it refutes.
	Dead
)

func (s State) String() string {
	switch s {
	case Alive:
		return api.GossipAlive
	case Suspect:
		return api.GossipSuspect
	default:
		return api.GossipDead
	}
}

func parseState(s string) State {
	switch s {
	case api.GossipAlive:
		return Alive
	case api.GossipSuspect:
		return Suspect
	default:
		return Dead
	}
}

// worse orders states by badness for the equal-incarnation merge rule.
func worse(a, b State) bool { return a > b }

// Member is one entry of the membership table, as exposed to callers.
type Member struct {
	ID          string // advertised base URL; doubles as gossip address
	Role        string // api.RoleWorker, api.RoleRouter, or "" (not yet learned)
	State       State
	Incarnation uint64
	// Quiet marks an alive member that has left this agent's gossip
	// unanswered for longer than half an exchange's timeout: a round
	// asked it and no direct word from it has come since. A running
	// member answers in milliseconds; a frozen process keeps the
	// connection open and answers nothing. It is this agent's own
	// evidence, not yet confirmed by the indirect probe that would make
	// the member suspect. Snapshots compute it; the ring keeps a quiet
	// member, but a caller waiting on one may stop waiting.
	Quiet bool
}

// AliveIDs filters a snapshot down to the sorted IDs of alive members
// of the given role ("" matches any role). This is what subscribers
// feed to fleet.Ring: suspect members are deliberately included —
// suspicion is a timeout, not proof, and dropping a slow-but-alive
// node from the ring would reshuffle ownership for nothing. Only
// confirmed-dead members leave the ring.
func AliveIDs(members []Member, role string) []string {
	ids := make([]string, 0, len(members))
	for _, m := range members {
		if m.State == Dead {
			continue
		}
		if role != "" && m.Role != role {
			continue
		}
		ids = append(ids, m.ID)
	}
	sort.Strings(ids)
	return ids
}

// Config configures an Agent.
type Config struct {
	// Self is this node's advertised base URL — its identity in the
	// protocol and the address peers gossip back to. Required.
	Self string
	// Role is api.RoleWorker or api.RoleRouter. Required.
	Role string
	// Seeds are peer base URLs contacted first; any one live seed is
	// enough to learn the whole member set.
	Seeds []string
	// Interval between gossip rounds (the protocol's heartbeat).
	// Default 500ms.
	Interval time.Duration
	// SuspectAfter is the silence after which a member turns suspect in a
	// fleet of up to 2×Fanout+1 members; a larger fleet stretches it in
	// proportion to the round-robin cycle (see suspectAfterLocked).
	// Default 5×Interval. A suspect turns dead once it has been suspect
	// for DeadAfter − SuspectAfter (SWIM's suspicion timeout); DeadAfter
	// defaults to 2×SuspectAfter.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// Fanout is how many peers each round gossips with. Default 2.
	Fanout int
	// PingReqFanout is how many alive helpers an indirect probe
	// (SWIM's ping-req) asks before suspecting a silent member: when a
	// member goes quiet past SuspectAfter, the agent first asks up to
	// this many other members to probe it on our behalf, and only
	// suspects it if none can reach it either. This keeps a node alive
	// through an asymmetric partition (we can't reach it, others can).
	// Default 2; negative disables indirect probing entirely.
	PingReqFanout int
	// Timeout bounds one gossip HTTP exchange. Default Interval (min 1s).
	// An outgoing ping-req exchange gets 2×Timeout, since the helper
	// nests a direct probe of its own inside serving it.
	Timeout time.Duration
	// Transport, if set, replaces the HTTP transport for all outgoing
	// exchanges. Tests use it to simulate asymmetric partitions.
	Transport http.RoundTripper
	// OnChange, if set, fires from the agent's goroutine whenever the
	// non-dead member set (IDs or their roles) changes — including after
	// the first round. Snapshot is the full table; use AliveIDs to
	// derive ring inputs. The callback must not call back into Close.
	OnChange func(members []Member)
	// Logf, if set, receives one line per membership transition.
	Logf func(format string, args ...any)
}

type entry struct {
	Member
	lastHeard time.Time
	// askedAt is when a round first gossiped with the member since the
	// last direct contact with it (zero when nothing is outstanding).
	// Unlike lastHeard, a refutation relayed by gossip does not clear
	// it: that is old news from the member.
	askedAt time.Time
	// suspectedAt is when this node recorded the member suspect, by its
	// own tick or by gossip. The suspect→dead clock runs from here, not
	// from lastHeard: an indirect probe may hold the alive→suspect
	// transition past DeadAfter, and measuring death from lastHeard would
	// then skip the suspect window entirely.
	suspectedAt time.Time
	// probing is set while an async indirect probe (ping-req) for this
	// member is in flight: tick holds the alive→suspect transition until
	// the probe settles. probeFailed records that a completed probe got
	// no ack, which lets the next tick suspect immediately. Both clear
	// whenever fresh liveness evidence refreshes lastHeard.
	probing     bool
	probeFailed bool
	// sending is set while a round's exchange with the member is in
	// flight.
	sending bool
}

// Stats is a point-in-time counter snapshot for /metrics.
type Stats struct {
	Rounds      uint64 // gossip rounds run
	Sends       uint64 // outgoing exchanges attempted
	SendErrors  uint64 // outgoing exchanges failed
	Received    uint64 // incoming exchanges served
	Refutations uint64 // times this node refuted its own suspicion/death
	Changes     uint64 // OnChange firings
	PingReqs    uint64 // indirect probes (ping-req) initiated
	PingReqAcks uint64 // indirect probes acked by a helper
	Alive       int    // current table tally (suspect counts as not-dead
	Suspect     int    // but is reported separately)
	Dead        int
}

// Agent runs the membership protocol for one node: a periodic gossip
// loop plus an HTTP handler for incoming exchanges. All methods are
// safe for concurrent use.
type Agent struct {
	cfg Config
	hc  *http.Client
	// phc serves outgoing ping-req exchanges: double the ordinary
	// timeout, because the helper runs a nested direct probe before
	// answering.
	phc *http.Client

	mu          sync.Mutex
	incarnation uint64
	table       map[string]*entry // keyed by ID; excludes self
	cursor      int               // round-robin position over sorted peer IDs
	helperNext  int               // pickHelpers' position over sorted alive IDs
	lastSig     string            // change-detection signature of the live set
	started     time.Time
	// notifyMu serializes notifications: exchanges, incoming gossip and
	// the round all notify, and a slower caller must not hand OnChange an
	// older snapshot after a newer one.
	notifyMu sync.Mutex

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	running  atomic.Bool

	rounds, sends, sendErrs, recvs, refutes, changes atomic.Uint64
	pingReqs, pingReqAcks                            atomic.Uint64
}

// New validates the config, fills defaults, and seeds the table. Call
// Start to begin gossiping; the agent serves incoming gossip (ServeGossip)
// either way.
func New(cfg Config) (*Agent, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("membership: Self is required")
	}
	if cfg.Role != api.RoleWorker && cfg.Role != api.RoleRouter {
		return nil, fmt.Errorf("membership: unknown role %q", cfg.Role)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	if cfg.SuspectAfter <= 0 {
		cfg.SuspectAfter = 5 * cfg.Interval
	}
	if cfg.DeadAfter <= 0 {
		cfg.DeadAfter = 2 * cfg.SuspectAfter
	}
	if cfg.DeadAfter < cfg.SuspectAfter {
		return nil, fmt.Errorf("membership: DeadAfter %v below SuspectAfter %v", cfg.DeadAfter, cfg.SuspectAfter)
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = 2
	}
	if cfg.PingReqFanout == 0 {
		cfg.PingReqFanout = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval
		if cfg.Timeout < time.Second {
			cfg.Timeout = time.Second
		}
	}
	a := &Agent{
		cfg:     cfg,
		hc:      &http.Client{Timeout: cfg.Timeout, Transport: cfg.Transport},
		phc:     &http.Client{Timeout: 2 * cfg.Timeout, Transport: cfg.Transport},
		table:   make(map[string]*entry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		started: time.Now(),
		// Agents start their helper rotation apart.
		helperNext: int(crc32.ChecksumIEEE([]byte(cfg.Self)) % 1024),
	}
	for _, s := range cfg.Seeds {
		s = strings.TrimRight(strings.TrimSpace(s), "/")
		if s == "" || s == cfg.Self {
			continue
		}
		// Seeds start alive with the grace clock running from startup:
		// an unreachable seed ages into suspect→dead like any member.
		a.table[s] = &entry{
			Member:    Member{ID: s, State: Alive},
			lastHeard: a.started,
		}
	}
	return a, nil
}

// Start launches the gossip loop (an immediate round, then every
// Interval). Close stops it.
func (a *Agent) Start() {
	if a.running.CompareAndSwap(false, true) {
		go a.loop()
	}
}

// Close stops the gossip loop and waits for it to exit. The HTTP
// handler keeps answering (a draining node still refutes and informs).
func (a *Agent) Close() {
	a.stopOnce.Do(func() { close(a.stop) })
	if a.running.Load() {
		<-a.done
	}
}

// Self returns the advertised identity.
func (a *Agent) Self() string { return a.cfg.Self }

// Incarnation returns this node's current incarnation number.
func (a *Agent) Incarnation() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.incarnation
}

// Members returns a snapshot of the table (self included), sorted by ID.
func (a *Agent) Members() []Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.membersLocked()
}

func (a *Agent) membersLocked() []Member {
	out := make([]Member, 0, len(a.table)+1)
	out = append(out, Member{ID: a.cfg.Self, Role: a.cfg.Role, State: Alive, Incarnation: a.incarnation})
	now := time.Now()
	for _, e := range a.table {
		m := e.Member
		m.Quiet = a.quietLocked(e, now)
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (a *Agent) quietLocked(e *entry, now time.Time) bool {
	return e.State == Alive && !e.askedAt.IsZero() && now.Sub(e.askedAt) > a.cfg.Timeout/2
}

// Live reports whether id is this agent or an alive member that is not
// quiet: a member a caller may keep waiting on.
func (a *Agent) Live(id string) bool {
	if id == a.cfg.Self {
		return true
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.table[id]
	return ok && e.State == Alive && !a.quietLocked(e, time.Now())
}

// Alive returns the sorted IDs of non-dead members of the given role
// ("" = any role), self included when the role matches.
func (a *Agent) Alive(role string) []string {
	return AliveIDs(a.Members(), role)
}

// Stats snapshots the agent's counters and table tallies.
func (a *Agent) Stats() Stats {
	a.mu.Lock()
	alive, suspect, dead := 1, 0, 0 // self
	for _, e := range a.table {
		switch e.State {
		case Alive:
			alive++
		case Suspect:
			suspect++
		default:
			dead++
		}
	}
	a.mu.Unlock()
	return Stats{
		Rounds:      a.rounds.Load(),
		Sends:       a.sends.Load(),
		SendErrors:  a.sendErrs.Load(),
		Received:    a.recvs.Load(),
		Refutations: a.refutes.Load(),
		Changes:     a.changes.Load(),
		PingReqs:    a.pingReqs.Load(),
		PingReqAcks: a.pingReqAcks.Load(),
		Alive:       alive,
		Suspect:     suspect,
		Dead:        dead,
	}
}

func (a *Agent) logf(format string, args ...any) {
	if a.cfg.Logf != nil {
		a.cfg.Logf(format, args...)
	}
}

func (a *Agent) loop() {
	defer close(a.done)
	a.round()
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.round()
		}
	}
}

// round is one heartbeat: gossip with up to Fanout peers (round-robin
// over the sorted non-dead set, so every peer is contacted regularly),
// age silent members toward suspect/dead, and notify on change. Each
// exchange runs on its own goroutine: a member that never answers (a
// frozen process keeps the connection open) costs its own exchange the
// timeout, not this node's heartbeat, so the other targets, the tick
// and the notification stay on schedule.
func (a *Agent) round() {
	a.rounds.Add(1)
	for _, id := range a.pickTargets() {
		go func() {
			a.gossipWith(id)
			a.mu.Lock()
			a.table[id].sending = false
			a.mu.Unlock()
			select {
			case <-a.stop:
			default:
				a.notifyIfChanged()
			}
		}()
	}
	a.tick(time.Now())
	a.notifyIfChanged()
}

// pickTargets returns the round's gossip targets and marks them sending
// (and asked, unless an earlier question is still unanswered). A member
// whose previous exchange is still in flight is passed over.
func (a *Agent) pickTargets() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.table))
	for id, e := range a.table {
		if e.State != Dead {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	n := a.cfg.Fanout
	if n > len(ids) {
		n = len(ids)
	}
	out := make([]string, 0, n)
	now := time.Now()
	for i := 0; i < n; i++ {
		id := ids[(a.cursor+i)%len(ids)]
		if e := a.table[id]; !e.sending {
			e.sending = true
			if e.askedAt.IsZero() {
				e.askedAt = now
			}
			out = append(out, id)
		}
	}
	a.cursor += n
	return out
}

// gossipWith runs one outgoing exchange: POST our table, merge theirs.
// It reports whether the exchange completed, which doubles as direct
// liveness evidence when serving a helper-side ping-req.
func (a *Agent) gossipWith(id string) bool {
	return a.exchange(id, "", a.hc) != nil
}

// exchange performs one gossip POST to id, optionally carrying a
// ping-req target, and folds the reply into the table. It returns the
// parsed response, or nil on any failure.
func (a *Agent) exchange(id, pingTarget string, hc *http.Client) *api.GossipResponse {
	a.sends.Add(1)
	req := api.GossipRequest{From: a.cfg.Self, Members: a.wireTable(), PingTarget: pingTarget}
	body, err := json.Marshal(req)
	if err != nil {
		a.sendErrs.Add(1)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), hc.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, id+"/v1/gossip", bytes.NewReader(body))
	if err != nil {
		a.sendErrs.Add(1)
		return nil
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(hreq)
	if err != nil {
		a.sendErrs.Add(1)
		return nil
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		a.sendErrs.Add(1)
		return nil
	}
	gr, err := api.ParseGossipResponse(data)
	if err != nil {
		a.sendErrs.Add(1)
		return nil
	}
	now := time.Now()
	a.mu.Lock()
	a.mergeLocked(gr.Members, now)
	a.markContactLocked(id, now)
	a.mu.Unlock()
	return gr
}

// pingReq runs one indirect probe of target: ask up to PingReqFanout
// alive helpers (via a gossip exchange carrying PingTarget) to probe it
// for us. Any helper ack is liveness evidence as good as our own
// contact; no acks means nobody we trust can reach it either, and the
// next tick may suspect it. Runs on its own goroutine — tick holds the
// suspect transition while the entry's probing flag is up.
func (a *Agent) pingReq(target string) {
	a.pingReqs.Add(1)
	helpers := a.pickHelpers(target)
	acked := false
	for _, h := range helpers {
		gr := a.exchange(h, target, a.phc)
		if gr != nil && gr.PingOK {
			a.pingReqAcks.Add(1)
			acked = true
			break
		}
	}
	now := time.Now()
	a.mu.Lock()
	if e, ok := a.table[target]; ok {
		if acked {
			a.logf("membership: %s reachable via helper (ping-req ack)", target)
			a.markContactLocked(target, now)
		} else {
			e.probeFailed = true
		}
		e.probing = false
	}
	a.mu.Unlock()
}

// pickHelpers returns up to PingReqFanout alive members other than the
// target: consecutive members of the sorted alive list, from where the
// agent's previous pick stopped. Each ping-req asks the next helpers in
// turn, and agents start at offsets drawn from their own IDs, so the
// indirect probes of a fleet spread over its members instead of all
// landing on its lowest IDs.
func (a *Agent) pickHelpers(target string) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	ids := make([]string, 0, len(a.table))
	for id, e := range a.table {
		if id != target && e.State == Alive {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	n := a.cfg.PingReqFanout
	if n <= 0 || len(ids) <= n {
		return ids
	}
	start := a.helperNext % len(ids)
	a.helperNext = start + n
	out := make([]string, n)
	for i := range out {
		out[i] = ids[(start+i)%len(ids)]
	}
	return out
}

// wireTable renders the full table (self first) for the wire.
func (a *Agent) wireTable() []api.GossipMember {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.wireTableLocked()
}

func (a *Agent) wireTableLocked() []api.GossipMember {
	out := make([]api.GossipMember, 0, len(a.table)+1)
	out = append(out, api.GossipMember{
		ID: a.cfg.Self, Role: a.cfg.Role, State: api.GossipAlive, Incarnation: a.incarnation,
	})
	for _, e := range a.table {
		out = append(out, api.GossipMember{
			ID: e.ID, Role: e.Role, State: e.State.String(), Incarnation: e.Incarnation,
		})
	}
	if len(out) > api.MaxGossipMembers {
		out = out[:api.MaxGossipMembers]
	}
	return out
}

// markContactLocked records direct liveness evidence for id: we just
// completed an exchange with it, so whatever gossip claimed, it is
// alive right now at its current incarnation.
func (a *Agent) markContactLocked(id string, now time.Time) {
	e, ok := a.table[id]
	if !ok {
		return
	}
	if e.State != Alive {
		a.logf("membership: %s %s -> alive (direct contact)", id, e.State)
	}
	e.State = Alive
	e.lastHeard = now
	e.askedAt = time.Time{}
	e.probeFailed = false
}

// mergeLocked folds a remote table into ours under SWIM precedence.
func (a *Agent) mergeLocked(members []api.GossipMember, now time.Time) {
	for _, m := range members {
		if m.ID == a.cfg.Self {
			// Refutation: someone claims we are suspect/dead at an
			// incarnation as fresh as ours. Out-rank the claim; the next
			// exchange (including the response being built) spreads it.
			st := parseState(m.State)
			if st != Alive && m.Incarnation >= a.incarnation {
				a.incarnation = m.Incarnation + 1
				a.refutes.Add(1)
				a.logf("membership: refuting %s claim, incarnation -> %d", m.State, a.incarnation)
			}
			continue
		}
		st := parseState(m.State)
		e, ok := a.table[m.ID]
		if !ok {
			a.table[m.ID] = &entry{
				Member:      Member{ID: m.ID, Role: m.Role, State: st, Incarnation: m.Incarnation},
				lastHeard:   now,
				suspectedAt: now,
			}
			a.logf("membership: learned %s (%s, %s)", m.ID, m.Role, m.State)
			continue
		}
		if e.Role == "" && m.Role != "" {
			e.Role = m.Role
		}
		prev := e.State
		switch {
		case m.Incarnation > e.Incarnation:
			if e.State != st {
				a.logf("membership: %s %s -> %s (incarnation %d)", m.ID, e.State, st, m.Incarnation)
			}
			e.Incarnation = m.Incarnation
			e.State = st
			// A refutation (fresh incarnation, alive) is news from the
			// member itself — restart its silence clock.
			if st == Alive {
				e.lastHeard = now
				e.probeFailed = false
			}
		case m.Incarnation == e.Incarnation && worse(st, e.State):
			a.logf("membership: %s %s -> %s (gossip)", m.ID, e.State, st)
			e.State = st
		}
		if e.State == Suspect && prev != Suspect {
			e.suspectedAt = now
		}
	}
}

// tick ages silent members: alive → suspect after suspectAfter of
// silence, suspect → dead after DeadAfter − SuspectAfter of suspicion.
// Before suspecting an alive member,
// the agent tries an indirect probe (SWIM's ping-req): the transition
// is held while the probe is in flight, taken only once a completed
// probe got no helper ack.
func (a *Agent) tick(now time.Time) {
	a.mu.Lock()
	defer a.mu.Unlock()
	suspectAfter := a.suspectAfterLocked()
	for _, e := range a.table {
		silent := now.Sub(e.lastHeard)
		switch e.State {
		case Alive:
			if silent > suspectAfter {
				if a.cfg.PingReqFanout > 0 && !e.probing && !e.probeFailed {
					e.probing = true
					go a.pingReq(e.ID)
					continue
				}
				if e.probing {
					continue
				}
				e.State = Suspect
				e.suspectedAt = now
				e.probeFailed = false
				a.logf("membership: %s alive -> suspect (silent %v)", e.ID, silent.Round(time.Millisecond))
			}
		case Suspect:
			if now.Sub(e.suspectedAt) > a.cfg.DeadAfter-a.cfg.SuspectAfter {
				e.State = Dead
				a.logf("membership: %s suspect -> dead (silent %v)", e.ID, silent.Round(time.Millisecond))
			}
		}
	}
}

// suspectAfterLocked is the silence that makes an alive member suspect.
// Direct contact is the only thing that restarts a member's silence
// clock, and this agent's round-robin reaches each of its m non-dead
// peers once every ⌈m/Fanout⌉ rounds. SuspectAfter is the window for a
// cycle of up to two rounds (a fleet of up to 2×Fanout+1 members, five
// by default); a longer cycle stretches the window in proportion, so a
// healthy member is never silent past it merely because the fleet is
// large, and a ping-req stays the exception it is in a small fleet.
func (a *Agent) suspectAfterLocked() time.Duration {
	m := 0
	for _, e := range a.table {
		if e.State != Dead {
			m++
		}
	}
	cycle := (m + a.cfg.Fanout - 1) / a.cfg.Fanout
	if cycle <= 2 {
		return a.cfg.SuspectAfter
	}
	return a.cfg.SuspectAfter * time.Duration(cycle) / 2
}

// notifyIfChanged fires OnChange when the non-dead member set (or a
// member's role) changed since the last notification.
func (a *Agent) notifyIfChanged() {
	a.notifyMu.Lock()
	defer a.notifyMu.Unlock()
	a.mu.Lock()
	ids := make([]string, 0, len(a.table)+1)
	ids = append(ids, a.cfg.Self+"|"+a.cfg.Role)
	for _, e := range a.table {
		if e.State != Dead {
			ids = append(ids, e.ID+"|"+e.Role)
		}
	}
	sort.Strings(ids)
	sig := strings.Join(ids, "\n")
	changed := sig != a.lastSig
	var snapshot []Member
	if changed {
		a.lastSig = sig
		snapshot = a.membersLocked()
	}
	a.mu.Unlock()
	if changed {
		a.changes.Add(1)
		if a.cfg.OnChange != nil {
			a.cfg.OnChange(snapshot)
		}
	}
}

// HandleGossip serves one incoming exchange: merge the sender's table,
// credit the sender with direct liveness, and answer with ours.
func (a *Agent) HandleGossip(req *api.GossipRequest) api.GossipResponse {
	a.recvs.Add(1)
	now := time.Now()
	a.mu.Lock()
	a.mergeLocked(req.Members, now)
	// Snapshot the reply BEFORE crediting the sender with direct contact:
	// a sender we currently believe suspect or dead must see that claim in
	// the reply so it can refute with a fresher incarnation. Marking
	// contact first would resurrect it here at the same incarnation, the
	// reply would advertise it alive, and every other member still holding
	// the dead claim would win the merge forever (worse state ties).
	replyTable := a.wireTableLocked()
	if req.From != a.cfg.Self {
		if _, ok := a.table[req.From]; !ok {
			// A sender we had no entry for (e.g. a brand-new node whose
			// table hasn't reached us): insert it; role arrives with its
			// self entry in Members (already merged above) or next round.
			a.table[req.From] = &entry{Member: Member{ID: req.From, State: Alive}, lastHeard: now}
		}
		a.markContactLocked(req.From, now)
	}
	resp := api.GossipResponse{From: a.cfg.Self, Members: replyTable}
	pingTarget := ""
	if req.PingTarget != "" && req.PingTarget != req.From {
		if req.PingTarget == a.cfg.Self {
			// Being asked about ourselves is trivially an ack.
			resp.PingOK = true
		} else if _, known := a.table[req.PingTarget]; known {
			// Probe outside the lock, below. Only members already in our
			// table are probed: gossip never turns this node into an
			// open proxy for arbitrary URLs.
			pingTarget = req.PingTarget
		}
	}
	a.mu.Unlock()
	if pingTarget != "" {
		// Helper side of ping-req: direct-probe the target on the
		// sender's behalf. A completed exchange both acks the probe and
		// refreshes our own liveness evidence for the target.
		resp.PingOK = a.gossipWith(pingTarget)
	}
	a.notifyIfChanged()
	return resp
}

// ServeGossip is the HTTP face of the protocol: POST /v1/gossip runs an
// exchange, GET /v1/gossip returns the table read-only (for operators
// and the chaos harness to watch convergence).
func (a *Agent) ServeGossip(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		api.WriteJSON(w, http.StatusOK, api.GossipResponse{From: a.cfg.Self, Members: a.wireTable()})
	case http.MethodPost:
		data, ok := api.ReadBody(w, r, 1<<20)
		if !ok {
			return
		}
		req, err := api.ParseGossipRequest(data)
		if err != nil {
			api.WriteJSON(w, http.StatusBadRequest, api.ErrorResponse{Error: err.Error()})
			return
		}
		api.WriteJSON(w, http.StatusOK, a.HandleGossip(req))
	default:
		w.Header().Set("Allow", "GET, POST")
		api.WriteJSON(w, http.StatusMethodNotAllowed, api.ErrorResponse{Error: "method not allowed"})
	}
}

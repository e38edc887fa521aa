package membership

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"canary/internal/api"
)

func newAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return a
}

// stateOf finds id in a snapshot; fatal if absent.
func stateOf(t *testing.T, ms []Member, id string) Member {
	t.Helper()
	for _, m := range ms {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("member %s not in snapshot %v", id, ms)
	return Member{}
}

// TestMergePrecedence pins the SWIM merge rules the whole protocol
// rests on: higher incarnation wins, equal incarnation keeps the worse
// state, lower incarnation is stale noise.
func TestMergePrecedence(t *testing.T) {
	a := newAgent(t, Config{Self: "http://self", Role: api.RoleWorker})
	now := time.Now()
	a.mu.Lock()
	a.mergeLocked([]api.GossipMember{{ID: "http://b", Role: api.RoleWorker, State: api.GossipAlive, Incarnation: 3}}, now)
	a.mu.Unlock()

	cases := []struct {
		in   api.GossipMember
		want State
		inc  uint64
	}{
		// Equal incarnation: worse state wins, better state does not.
		{api.GossipMember{ID: "http://b", State: api.GossipSuspect, Incarnation: 3}, Suspect, 3},
		{api.GossipMember{ID: "http://b", State: api.GossipAlive, Incarnation: 3}, Suspect, 3},
		{api.GossipMember{ID: "http://b", State: api.GossipDead, Incarnation: 3}, Dead, 3},
		// Stale incarnation: ignored entirely.
		{api.GossipMember{ID: "http://b", State: api.GossipAlive, Incarnation: 2}, Dead, 3},
		// Fresh incarnation: wins even against dead (that is the refutation).
		{api.GossipMember{ID: "http://b", State: api.GossipAlive, Incarnation: 4}, Alive, 4},
	}
	for i, c := range cases {
		a.mu.Lock()
		a.mergeLocked([]api.GossipMember{c.in}, now)
		a.mu.Unlock()
		got := stateOf(t, a.Members(), "http://b")
		if got.State != c.want || got.Incarnation != c.inc {
			t.Fatalf("case %d: got (%v,%d), want (%v,%d)", i, got.State, got.Incarnation, c.want, c.inc)
		}
	}
}

// TestSelfRefutation: a node that hears itself declared suspect or dead
// must bump its incarnation past the claim so its next advertisement
// out-ranks it everywhere.
func TestSelfRefutation(t *testing.T) {
	a := newAgent(t, Config{Self: "http://self", Role: api.RoleWorker})
	a.mu.Lock()
	a.mergeLocked([]api.GossipMember{{ID: "http://self", State: api.GossipDead, Incarnation: 7}}, time.Now())
	a.mu.Unlock()
	if inc := a.Incarnation(); inc != 8 {
		t.Fatalf("incarnation after dead@7 claim = %d, want 8", inc)
	}
	// An alive claim about ourselves is not a refutation trigger.
	a.mu.Lock()
	a.mergeLocked([]api.GossipMember{{ID: "http://self", State: api.GossipAlive, Incarnation: 8}}, time.Now())
	a.mu.Unlock()
	if inc := a.Incarnation(); inc != 8 {
		t.Fatalf("incarnation after alive@8 claim = %d, want 8", inc)
	}
}

// TestSuspectDeadTimeouts: silence ages a member alive → suspect →
// dead on the configured clocks, and direct contact resurrects it.
func TestSuspectDeadTimeouts(t *testing.T) {
	a := newAgent(t, Config{
		Self: "http://self", Role: api.RoleWorker,
		Seeds:        []string{"http://b"},
		Interval:     10 * time.Millisecond,
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    100 * time.Millisecond,
		// Pure timeout aging under test: no indirect probe holding the
		// alive→suspect transition (that path has its own test below).
		PingReqFanout: -1,
	})
	base := time.Now()
	a.tick(base.Add(60 * time.Millisecond))
	if got := stateOf(t, a.Members(), "http://b"); got.State != Suspect {
		t.Fatalf("after SuspectAfter: state %v, want Suspect", got.State)
	}
	a.tick(base.Add(200 * time.Millisecond))
	if got := stateOf(t, a.Members(), "http://b"); got.State != Dead {
		t.Fatalf("after DeadAfter: state %v, want Dead", got.State)
	}
	// Direct contact beats everything.
	a.mu.Lock()
	a.markContactLocked("http://b", time.Now())
	a.mu.Unlock()
	if got := stateOf(t, a.Members(), "http://b"); got.State != Alive {
		t.Fatalf("after direct contact: state %v, want Alive", got.State)
	}
}

// TestSuspectWindowOutlastsSlowProbe: an indirect probe that is still in
// flight when DeadAfter passes must not cost the member its suspect
// window. The suspect→dead clock starts at suspicion, so a member whose
// probe failed late is suspect for DeadAfter − SuspectAfter before it
// is declared dead.
func TestSuspectWindowOutlastsSlowProbe(t *testing.T) {
	a := newAgent(t, Config{
		Self: "http://self", Role: api.RoleWorker,
		Seeds:        []string{"http://b"},
		Interval:     10 * time.Millisecond,
		SuspectAfter: 50 * time.Millisecond,
		DeadAfter:    100 * time.Millisecond,
	})
	base := a.started
	// The probe tick would launch, already in flight: tick must hold b
	// alive even past DeadAfter.
	a.mu.Lock()
	a.table["http://b"].probing = true
	a.mu.Unlock()
	a.tick(base.Add(150 * time.Millisecond))
	if got := stateOf(t, a.Members(), "http://b"); got.State != Alive {
		t.Fatalf("probe in flight: state %v, want Alive", got.State)
	}
	// The probe completes with no helper to ask: recorded as failed.
	a.pingReq("http://b")
	suspected := base.Add(160 * time.Millisecond)
	a.tick(suspected)
	if got := stateOf(t, a.Members(), "http://b"); got.State != Suspect {
		t.Fatalf("after failed probe: state %v, want Suspect", got.State)
	}
	a.tick(suspected.Add(40 * time.Millisecond))
	if got := stateOf(t, a.Members(), "http://b"); got.State != Suspect {
		t.Fatalf("40ms into a 50ms suspicion timeout: state %v, want Suspect", got.State)
	}
	a.tick(suspected.Add(60 * time.Millisecond))
	if got := stateOf(t, a.Members(), "http://b"); got.State != Dead {
		t.Fatalf("past the suspicion timeout: state %v, want Dead", got.State)
	}
}

// cluster spins up n agents served over real HTTP listeners, each
// seeded with the first agent's URL. The returned setAgent rebinds the
// i-th endpoint to a different agent — or, with nil, makes it error
// like a killed process — so tests can model SIGKILL and restart
// without fighting over listener ports.
func cluster(t *testing.T, n int, interval time.Duration) (agents []*Agent, urls []string, setAgent func(i int, a *Agent)) {
	t.Helper()
	// Listeners first so every URL is known before any agent starts.
	current := make([]atomic.Pointer[Agent], n)
	servers := make([]*httptest.Server, n)
	urls = make([]string, n)
	for i := range servers {
		i := i
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/gossip", func(w http.ResponseWriter, r *http.Request) {
			a := current[i].Load()
			if a == nil {
				http.Error(w, "down", http.StatusServiceUnavailable)
				return
			}
			a.ServeGossip(w, r)
		})
		servers[i] = httptest.NewServer(mux)
		urls[i] = servers[i].URL
		t.Cleanup(servers[i].Close)
	}
	agents = make([]*Agent, n)
	for i := range agents {
		a := newAgent(t, Config{
			Self:         urls[i],
			Role:         api.RoleWorker,
			Seeds:        []string{urls[0]},
			Interval:     interval,
			SuspectAfter: 6 * interval,
			DeadAfter:    12 * interval,
		})
		current[i].Store(a)
		agents[i] = a
		t.Cleanup(a.Close)
		a.Start()
	}
	return agents, urls, func(i int, a *Agent) { current[i].Store(a) }
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestClusterConvergesAndHealsFromDeath is the end-to-end protocol
// test: three real agents converge from one seed, a killed agent is
// detected suspect→dead by the survivors without any restart of
// theirs, and a fresh agent reusing the dead identity (incarnation 0,
// like a restarted process) refutes its own death and rejoins.
func TestClusterConvergesAndHealsFromDeath(t *testing.T) {
	const interval = 20 * time.Millisecond
	agents, urls, setAgent := cluster(t, 3, interval)

	allAlive := func(a *Agent, want int) bool {
		return len(a.Alive(api.RoleWorker)) == want
	}
	waitFor(t, 10*time.Second, "full convergence", func() bool {
		return allAlive(agents[0], 3) && allAlive(agents[1], 3) && allAlive(agents[2], 3)
	})

	// Kill agent 2: stop gossiping AND stop answering, like SIGKILL.
	agents[2].Close()
	setAgent(2, nil)
	waitFor(t, 10*time.Second, "death detection", func() bool {
		m0 := stateOf(t, agents[0].Members(), urls[2])
		m1 := stateOf(t, agents[1].Members(), urls[2])
		return m0.State == Dead && m1.State == Dead
	})
	if got := len(agents[0].Alive(api.RoleWorker)); got != 2 {
		t.Fatalf("alive set after death: %d members, want 2", got)
	}

	// Restart: a brand-new agent on the same identity, incarnation 0.
	reborn := newAgent(t, Config{
		Self:         urls[2],
		Role:         api.RoleWorker,
		Seeds:        []string{urls[0]},
		Interval:     interval,
		SuspectAfter: 6 * interval,
		DeadAfter:    12 * interval,
	})
	t.Cleanup(reborn.Close)
	setAgent(2, reborn)
	reborn.Start()
	waitFor(t, 10*time.Second, "rejoin after restart", func() bool {
		m0 := stateOf(t, agents[0].Members(), urls[2])
		m1 := stateOf(t, agents[1].Members(), urls[2])
		return m0.State == Alive && m1.State == Alive
	})
	if reborn.Incarnation() == 0 {
		t.Fatalf("reborn agent never refuted its death (incarnation still 0)")
	}
}

// TestOnChangeFiresOnMembershipEvents: subscribers (ring rebuilds, the
// peer cache tier) hear about joins and deaths exactly when the live
// set changes.
func TestOnChangeFiresOnMembershipEvents(t *testing.T) {
	mux := http.NewServeMux()
	srv := httptest.NewServer(mux)
	defer srv.Close()
	peer := newAgent(t, Config{Self: srv.URL, Role: api.RoleWorker, Interval: 10 * time.Millisecond})
	mux.HandleFunc("/v1/gossip", peer.ServeGossip)
	defer peer.Close()
	peer.Start()

	changes := make(chan []Member, 16)
	a := newAgent(t, Config{
		Self: "http://observer", Role: api.RoleRouter,
		Seeds:    []string{srv.URL},
		Interval: 10 * time.Millisecond,
		OnChange: func(ms []Member) { changes <- ms },
	})
	defer a.Close()
	a.Start()

	// First change: the seed set itself (and, once gossip completes,
	// the peer's role being learned).
	waitFor(t, 5*time.Second, "role discovery via OnChange", func() bool {
		select {
		case ms := <-changes:
			ids := AliveIDs(ms, api.RoleWorker)
			return len(ids) == 1 && ids[0] == srv.URL
		default:
			return false
		}
	})
}

// TestWireTableBounded: the advertised table never exceeds the wire
// decoder's member bound, whatever has been merged.
func TestWireTableBounded(t *testing.T) {
	a := newAgent(t, Config{Self: "http://self", Role: api.RoleWorker})
	many := make([]api.GossipMember, api.MaxGossipMembers)
	for i := range many {
		many[i] = api.GossipMember{ID: fmt.Sprintf("http://peer-%04d", i), State: api.GossipAlive}
	}
	a.mu.Lock()
	a.mergeLocked(many, time.Now())
	a.mu.Unlock()
	if got := len(a.wireTable()); got > api.MaxGossipMembers {
		t.Fatalf("wire table %d members exceeds bound %d", got, api.MaxGossipMembers)
	}
}

// partitionTransport simulates an asymmetric network partition: any
// request whose URL starts with the blocked prefix errors as if the
// link were cut, everything else rides the real transport.
type partitionTransport struct {
	base    http.RoundTripper
	blocked string
}

func (p *partitionTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if strings.HasPrefix(r.URL.String(), p.blocked) {
		return nil, fmt.Errorf("partitioned: %s unreachable", p.blocked)
	}
	return p.base.RoundTrip(r)
}

// TestPingReqKeepsPartitionedNodeAlive is the indirect-probe contract:
// when A cannot reach B but helper C can, A must not suspect B — the
// ping-req through C is liveness evidence as good as direct contact.
// With indirect probing disabled, the same silence suspects B.
func TestPingReqKeepsPartitionedNodeAlive(t *testing.T) {
	// B and C answer gossip over real listeners; A exists only as a
	// client whose transport drops the A→B link.
	mkServer := func() (*httptest.Server, func(*Agent)) {
		var cur atomic.Pointer[Agent]
		mux := http.NewServeMux()
		mux.HandleFunc("/v1/gossip", func(w http.ResponseWriter, r *http.Request) {
			cur.Load().ServeGossip(w, r)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv, func(a *Agent) { cur.Store(a) }
	}
	srvB, setB := mkServer()
	srvC, setC := mkServer()

	setB(newAgent(t, Config{Self: srvB.URL, Role: api.RoleWorker}))
	// C must already know B: a helper only probes members of its own
	// table, never arbitrary URLs from the wire.
	setC(newAgent(t, Config{Self: srvC.URL, Role: api.RoleWorker, Seeds: []string{srvB.URL}}))

	cut := &partitionTransport{base: http.DefaultTransport, blocked: srvB.URL}
	cfg := Config{
		Self: "http://a", Role: api.RoleWorker,
		Seeds:        []string{srvB.URL, srvC.URL},
		Interval:     10 * time.Millisecond,
		SuspectAfter: 40 * time.Millisecond,
		DeadAfter:    400 * time.Millisecond,
		Transport:    cut,
	}
	a := newAgent(t, cfg)

	// Let B fall silent past SuspectAfter at A, keeping C fresh via
	// direct contact, then tick: the alive→suspect transition must be
	// held while the indirect probe through C runs, and the ack must
	// land as contact evidence.
	time.Sleep(60 * time.Millisecond)
	waitFor(t, 10*time.Second, "ping-req ack through helper", func() bool {
		a.gossipWith(srvC.URL)
		a.tick(time.Now())
		m := stateOf(t, a.Members(), srvB.URL)
		st := a.Stats()
		return m.State == Alive && st.PingReqAcks > 0
	})
	if st := a.Stats(); st.PingReqs == 0 {
		t.Fatalf("no indirect probe was initiated: %+v", st)
	}
	if m := stateOf(t, a.Members(), srvB.URL); m.State != Alive {
		t.Fatalf("partitioned-but-alive member suspected despite helper ack: %v", m.State)
	}

	// Same silence with indirect probing disabled: B goes suspect.
	cfg.Self = "http://a2"
	cfg.PingReqFanout = -1
	a2 := newAgent(t, cfg)
	time.Sleep(60 * time.Millisecond)
	a2.gossipWith(srvC.URL)
	a2.tick(time.Now())
	if m := stateOf(t, a2.Members(), srvB.URL); m.State != Suspect {
		t.Fatalf("with ping-req disabled: state %v, want Suspect", m.State)
	}
	if st := a2.Stats(); st.PingReqs != 0 {
		t.Fatalf("disabled agent still probed: %+v", st)
	}
}

// TestQuietWhileUnanswered: a member is quiet only while a question of
// this agent's round has waited past half the exchange timeout without a
// direct answer. Long silence alone (a large fleet's round-robin may not
// reach a healthy member for many heartbeats) is not quiet; a refutation
// relayed by gossip does not clear it, direct contact does.
func TestQuietWhileUnanswered(t *testing.T) {
	a := newAgent(t, Config{
		Self: "http://self", Role: api.RoleWorker,
		Seeds:        []string{"http://b"},
		Interval:     10 * time.Millisecond,
		SuspectAfter: 30 * time.Millisecond,
		Timeout:      100 * time.Millisecond,
	})
	quiet := func() bool {
		t.Helper()
		got := stateOf(t, a.Members(), "http://b")
		if got.State != Alive {
			t.Fatalf("member %+v, want alive", got)
		}
		if a.Live("http://b") == got.Quiet {
			t.Fatalf("Live = %v for a member whose snapshot reads quiet = %v", !got.Quiet, got.Quiet)
		}
		return got.Quiet
	}
	a.mu.Lock()
	a.table["http://b"].lastHeard = time.Now().Add(-time.Second)
	a.mu.Unlock()
	if quiet() {
		t.Fatal("a member this agent has not asked is quiet")
	}
	if !a.Live("http://self") || a.Live("http://unknown") {
		t.Fatal("Live: self must be live, an unknown member not")
	}
	if ids := a.pickTargets(); len(ids) != 1 || quiet() {
		t.Fatalf("targets %v: a member asked just now is quiet", ids)
	}
	a.mu.Lock()
	a.table["http://b"].askedAt = time.Now().Add(-time.Second)
	a.mu.Unlock()
	if !quiet() {
		t.Fatal("a member that left a question unanswered is not quiet")
	}
	a.mu.Lock()
	a.mergeLocked([]api.GossipMember{{ID: "http://b", Role: api.RoleWorker, State: api.GossipAlive, Incarnation: 9}}, time.Now())
	a.mu.Unlock()
	if !quiet() {
		t.Fatal("a relayed refutation cleared quiet")
	}
	a.mu.Lock()
	a.markContactLocked("http://b", time.Now())
	a.mu.Unlock()
	if quiet() {
		t.Fatal("direct contact left the member quiet")
	}
}

// localTransport delivers each gossip request straight to the agent it
// is addressed to, in process: a fleet of many agents without sockets.
type localTransport map[string]*Agent

func (l localTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	a := l["http://"+r.URL.Host]
	if a == nil {
		return nil, fmt.Errorf("no member at %s", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	a.ServeGossip(rec, r)
	return rec.Result(), nil
}

// TestLargeHealthyFleetNeverQuiet: in a fleet of more than ten times the
// fanout, round-robin leaves a pair of healthy members without a direct
// exchange for longer than SuspectAfter, yet no member ever reads quiet.
func TestLargeHealthyFleetNeverQuiet(t *testing.T) {
	const n, interval = 12, 40 * time.Millisecond
	fleet := make(localTransport, n)
	agents := make([]*Agent, n)
	for i := range agents {
		self := fmt.Sprintf("http://m%02d.invalid", i)
		agents[i] = newAgent(t, Config{
			Self:         self,
			Role:         api.RoleWorker,
			Seeds:        []string{"http://m00.invalid"},
			Interval:     interval,
			SuspectAfter: 4 * interval,
			Fanout:       1,
			Transport:    fleet,
		})
		fleet[self] = agents[i]
	}
	for _, a := range agents {
		t.Cleanup(a.Close)
		a.Start()
	}
	waitFor(t, 10*time.Second, "convergence", func() bool {
		for _, a := range agents {
			if len(AliveIDs(a.Members(), "")) != n {
				return false
			}
		}
		return true
	})
	for end := time.Now().Add(50 * interval); time.Now().Before(end); time.Sleep(interval / 4) {
		for _, a := range agents {
			for _, m := range a.Members() {
				if m.Quiet {
					t.Fatalf("agent %s reads healthy member %s quiet: %+v", a.Self(), m.ID, a.Stats())
				}
			}
		}
	}
}

// TestRoundNotStalledByFrozenMember: a member that accepts the
// connection and never answers (a SIGSTOPped process) costs only its own
// exchange the timeout; the round returns at once, the other target of
// the round is contacted meanwhile, and the next round does not stack a
// second exchange on the frozen member.
func TestRoundNotStalledByFrozenMember(t *testing.T) {
	frozen := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) // so the server notices the caller hang up
		<-r.Context().Done()
	}))
	t.Cleanup(frozen.Close)
	var live atomic.Pointer[Agent]
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		live.Load().ServeGossip(w, r)
	}))
	t.Cleanup(srv.Close)
	live.Store(newAgent(t, Config{Self: srv.URL, Role: api.RoleWorker}))

	a := newAgent(t, Config{
		Self: "http://self", Role: api.RoleWorker,
		Seeds:   []string{frozen.URL, srv.URL},
		Fanout:  2,
		Timeout: 2 * time.Second,
	})
	t0 := time.Now()
	a.round()
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("round took %v behind a frozen member", d)
	}
	waitFor(t, 5*time.Second, "the live member's exchange", func() bool {
		return live.Load().Stats().Received > 0
	})
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("the live member was reached only after %v", d)
	}
	for _, id := range a.pickTargets() {
		if id == frozen.URL {
			t.Fatal("a second exchange was stacked on the frozen member")
		}
	}
}

// TestPickHelpersSpread gives an agent a table of 21 alive peers (a
// 22-member fleet) and asks for the ping-req helpers of every peer in
// turn, twice over: every alive member must serve, and none may take
// more than its share plus one fanout. Taking the sorted prefix sends
// every ping-req to the same two or three members.
func TestPickHelpersSpread(t *testing.T) {
	var seeds []string
	for i := 0; i < 21; i++ {
		seeds = append(seeds, fmt.Sprintf("http://m%02d", i))
	}
	a := newAgent(t, Config{Self: "http://self", Role: api.RoleWorker, Seeds: seeds})
	load := make(map[string]int)
	calls := 0
	for round := 0; round < 2; round++ {
		for _, target := range seeds {
			helpers := a.pickHelpers(target)
			if len(helpers) != a.cfg.PingReqFanout {
				t.Fatalf("%d helpers for %s, want %d", len(helpers), target, a.cfg.PingReqFanout)
			}
			for _, h := range helpers {
				if h == target {
					t.Fatalf("%s picked as its own helper", target)
				}
				load[h]++
			}
			calls++
		}
	}
	share := calls * a.cfg.PingReqFanout / len(seeds)
	for _, id := range seeds {
		if load[id] == 0 || load[id] > share+a.cfg.PingReqFanout {
			t.Errorf("%s served %d ping-reqs (share %d): %v", id, load[id], share, load)
		}
	}
}

// TestLargeFleetSuspectsNoLiveMember: in a healthy fleet of 20 agents at
// the default fanout, round-robin reaches a given peer once every ten
// rounds, twice the default SuspectAfter. A fixed window sends nearly
// every agent into a ping-req for nearly every peer on each cycle; the
// window stretched with the cycle keeps indirect probes rare, and no
// agent ever suspects a live member.
func TestLargeFleetSuspectsNoLiveMember(t *testing.T) {
	const n, interval = 20, 50 * time.Millisecond
	fleet := make(localTransport, n)
	agents := make([]*Agent, n)
	for i := range agents {
		self := fmt.Sprintf("http://m%02d.invalid", i)
		agents[i] = newAgent(t, Config{
			Self:      self,
			Role:      api.RoleWorker,
			Seeds:     []string{"http://m00.invalid"},
			Interval:  interval,
			Transport: fleet,
		})
		fleet[self] = agents[i]
	}
	for _, a := range agents {
		t.Cleanup(a.Close)
		a.Start()
	}
	waitFor(t, 10*time.Second, "convergence", func() bool {
		for _, a := range agents {
			if len(AliveIDs(a.Members(), "")) != n {
				return false
			}
		}
		return true
	})
	var reqs0, rounds0 uint64
	for _, a := range agents {
		st := a.Stats()
		reqs0 += st.PingReqs
		rounds0 += st.Rounds
	}
	// Three full round-robin cycles past the default SuspectAfter.
	for end := time.Now().Add(40 * interval); time.Now().Before(end); time.Sleep(interval / 2) {
		for _, a := range agents {
			for _, m := range a.Members() {
				if m.State != Alive {
					t.Fatalf("agent %s holds live member %s %v: %+v", a.Self(), m.ID, m.State, a.Stats())
				}
			}
		}
	}
	var reqs, rounds uint64
	for _, a := range agents {
		st := a.Stats()
		reqs += st.PingReqs
		rounds += st.Rounds
	}
	reqs, rounds = reqs-reqs0, rounds-rounds0
	t.Logf("%d ping-reqs in %d rounds", reqs, rounds)
	// At most one ping-req per 20 rounds across the fleet (one per agent
	// per 20 heartbeats); a fixed window measures about one per round.
	if reqs*20 > rounds {
		t.Fatalf("%d ping-reqs in %d rounds of a healthy fleet", reqs, rounds)
	}
}

package control

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/obs"
)

// nopTransport satisfies Transport for state-machine unit tests that never
// tick; every RPC fails, which a Node must tolerate anyway.
type nopTransport struct{}

func (nopTransport) Probe(ctx context.Context, peer string) error { return errors.New("nop") }
func (nopTransport) Lease(ctx context.Context, peer string, req client.LeaseRequest) (*client.LeaseResponse, error) {
	return nil, errors.New("nop")
}

// fixedClock pins Now for lease-expiry arithmetic.
type fixedClock struct{ t time.Time }

func (c *fixedClock) Now() time.Time { return c.t }

func newTestNode(t *testing.T, self string, peers ...string) (*Node, *fixedClock) {
	t.Helper()
	clock := &fixedClock{t: time.Unix(1000, 0)}
	n, err := New(Config{Self: self, Peers: peers, Transport: nopTransport{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Storeless nodes observe the amnesia grace period — no votes for one
	// TTL after startup. These are steady-state tests, so start past it.
	clock.t = clock.t.Add(n.ttl)
	return n, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Transport: nopTransport{}}); err == nil {
		t.Fatal("missing Self accepted")
	}
	if _, err := New(Config{Self: "a"}); err == nil {
		t.Fatal("missing Transport accepted")
	}
	if _, err := New(Config{Self: "a", Peers: []string{"b", ""}, Transport: nopTransport{}}); err == nil {
		t.Fatal("empty peer URL accepted")
	}
}

// TestDefaultSpecUsable: campaign winners are computed by DefaultSpec on
// the async simulator, and every candidate must compute the same one, so
// the spec must be registered, async-capable and deterministic.
func TestDefaultSpecUsable(t *testing.T) {
	spec, err := elect.Lookup(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !spec.Supports(elect.EngineAsync) {
		t.Fatalf("DefaultSpec %q does not run on the async simulator engine", DefaultSpec)
	}
	if !spec.Deterministic {
		t.Fatalf("DefaultSpec %q is not deterministic; candidates could not agree on a winner", DefaultSpec)
	}
}

func TestPeerNormalization(t *testing.T) {
	n, _ := newTestNode(t, "http://b", "http://c", "http://a", "http://c", "http://b")
	want := []string{"http://a", "http://b", "http://c"}
	got := n.Peers()
	if !sort.StringsAreSorted(got) || len(got) != len(want) {
		t.Fatalf("peers = %v, want sorted %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("peers = %v, want %v", got, want)
		}
	}
	if q := n.quorum(); q != 2 {
		t.Fatalf("quorum of 3 = %d, want 2", q)
	}
}

func TestHandleLeaseGrantRenewReject(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	now := clock.Now()

	// Fresh grant for a newer epoch.
	resp := n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, now)
	if !resp.Granted || resp.Epoch != 1 || resp.Holder != "http://b" {
		t.Fatalf("fresh grant: %+v", resp)
	}
	// Renewal: same epoch, same holder.
	resp = n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, now.Add(time.Second))
	if !resp.Granted {
		t.Fatalf("renewal rejected: %+v", resp)
	}
	// Same epoch, different holder: rejected — the at-most-once rule.
	resp = n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://c"}, now)
	if resp.Granted {
		t.Fatal("second holder granted the same epoch")
	}
	if resp.Epoch != 1 || resp.Holder != "http://b" {
		t.Fatalf("rejection must report the standing vote, got %+v", resp)
	}
	// Older epoch: rejected.
	if resp := n.HandleLease(client.LeaseRequest{Epoch: 0, Holder: "http://c"}, now); resp.Granted {
		t.Fatal("stale epoch granted")
	}
	// Empty holder: rejected even for a newer epoch.
	if resp := n.HandleLease(client.LeaseRequest{Epoch: 9}, now); resp.Granted {
		t.Fatal("empty holder granted")
	}
	// Newer epoch from another candidate: granted, vote moves on.
	if resp := n.HandleLease(client.LeaseRequest{Epoch: 2, Holder: "http://c"}, now); !resp.Granted {
		t.Fatalf("newer epoch rejected: %+v", resp)
	}
	st := n.Status()
	if st.Grants != 2 || st.Renewals != 1 || st.Rejects != 3 {
		t.Fatalf("counters grants=%d renewals=%d rejects=%d, want 2/1/3",
			st.Grants, st.Renewals, st.Rejects)
	}
	votes := n.Grants()
	if votes[1] != "http://b" || votes[2] != "http://c" {
		t.Fatalf("vote record %v", votes)
	}
}

func TestGrantingAwayDeposesCoordinator(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	now := clock.Now()
	// Make a the coordinator by hand: self-vote then quorum-confirm.
	if resp := n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://a"}, now); !resp.Granted {
		t.Fatal("self vote rejected")
	}
	n.mu.Lock()
	n.leading = true
	n.expires = now.Add(n.ttl)
	n.mu.Unlock()
	if !n.IsCoordinator() {
		t.Fatal("not coordinator after quorum")
	}
	// A newer epoch granted to someone else deposes us immediately.
	if resp := n.HandleLease(client.LeaseRequest{Epoch: 2, Holder: "http://b"}, now); !resp.Granted {
		t.Fatal("newer epoch rejected")
	}
	if n.IsCoordinator() {
		t.Fatal("still coordinator after granting a newer epoch away")
	}
	if st := n.Status(); st.Stepdowns != 1 {
		t.Fatalf("stepdowns = %d, want 1", st.Stepdowns)
	}
}

func TestCheckFence(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	now := clock.Now()
	n.HandleLease(client.LeaseRequest{Epoch: 5, Holder: "http://b"}, now)

	if err := n.CheckFence(0); err != nil {
		t.Fatalf("legacy token 0 rejected: %v", err)
	}
	if err := n.CheckFence(5); err != nil {
		t.Fatalf("current token rejected: %v", err)
	}
	if err := n.CheckFence(7); err != nil {
		t.Fatalf("future token rejected: %v", err)
	}
	err := n.CheckFence(4)
	var stale *StaleTokenError
	if !errors.As(err, &stale) {
		t.Fatalf("stale token accepted: %v", err)
	}
	if stale.Token != 4 || stale.Epoch != 5 || stale.Coordinator != "http://b" {
		t.Fatalf("stale error fields %+v", stale)
	}
	if st := n.Status(); st.FenceRejects != 1 {
		t.Fatalf("fenceRejects = %d, want 1", st.FenceRejects)
	}
}

func TestLeaseExpiryDemotes(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	now := clock.Now()
	n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://a"}, now)
	n.mu.Lock()
	n.leading = true
	n.expires = now.Add(n.ttl)
	n.mu.Unlock()

	st := n.Status()
	if st.Role != RoleCoordinator || st.Coordinator != "http://a" {
		t.Fatalf("status before expiry: %+v", st)
	}
	clock.t = now.Add(n.ttl + time.Second)
	if n.IsCoordinator() {
		t.Fatal("coordinator past expiry")
	}
	st = n.Status()
	if st.Role != RoleWorker || st.Coordinator != "" {
		t.Fatalf("status after expiry: %+v", st)
	}
}

// TestRenewalsStayOutOfJournal: a follower renews its lease every TTL/3,
// so journaling renewals would push its lease.grant out of the ring within
// the hour; renewals are only counted.
func TestRenewalsStayOutOfJournal(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	events := obs.NewEventLog(obs.DefaultEventCapacity, "http://a")
	n.SetEvents(events)
	lease := client.LeaseRequest{Epoch: 1, Holder: "http://b"}
	if !n.HandleLease(lease, clock.Now()).Granted {
		t.Fatal("grant refused")
	}
	for i := 0; i < 2000; i++ {
		clock.t = clock.t.Add(n.ttl / 3)
		if !n.HandleLease(lease, clock.Now()).Granted {
			t.Fatalf("renewal %d refused", i)
		}
	}
	evs := events.Events(0, 0)
	if len(evs) != 1 || evs[0].Kind != "lease.grant" {
		kinds := make([]string, 0, min(len(evs), 4))
		for _, ev := range evs[:min(len(evs), 4)] {
			kinds = append(kinds, ev.Kind)
		}
		t.Fatalf("journal holds %d events starting %v, want exactly [lease.grant]", len(evs), kinds)
	}
	if got := n.Status().Renewals; got != 2000 {
		t.Fatalf("Status().Renewals = %d, want 2000", got)
	}
}

// TestWatchJournalsUnreachableHolder: a follower whose lease holder stops
// answering journals holder.unreachable when it gives up and campaigns.
func TestWatchJournalsUnreachableHolder(t *testing.T) {
	n, clock := newTestNode(t, "http://a", "http://b", "http://c")
	events := obs.NewEventLog(16, "http://a")
	n.SetEvents(events)
	n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, clock.Now())
	for i := 0; i < suspectThreshold; i++ {
		n.Tick(clock.Now()) // every probe of http://b fails
		clock.t = clock.t.Add(n.ttl / 3)
	}
	var kinds []string
	for _, ev := range events.Events(0, 0) {
		kinds = append(kinds, ev.Kind)
		if ev.Kind == "holder.unreachable" && ev.Fields["holder"] == "http://b" && ev.Fields["error"] != "" {
			return
		}
	}
	t.Fatalf("journal %v has no holder.unreachable{holder=http://b error=…}", kinds)
}

// TestElectWinnerFallbackSpan: when the election run fails, the max URL
// wins and the control.elect span carries the error.
func TestElectWinnerFallbackSpan(t *testing.T) {
	n, _ := newTestNode(t, "http://a", "http://b")
	spans := obs.NewSpanCollector(4)
	n.SetSpans(spans)
	if n.spec, _ = elect.Lookup("tradeoff"); n.spec.Supports(elect.EngineAsync) {
		t.Fatal("tradeoff runs on the async engine; pick a sync-only spec")
	}
	if got := n.electWinner([]string{"http://b", "http://a"}, 1); got != "http://b" {
		t.Fatalf("fallback winner %s, want the max URL", got)
	}
	ids := spans.TraceIDs(1)
	if len(ids) != 1 || spans.Trace(ids[0])[0].Attrs["error"] == "" {
		t.Fatal("control.elect span without an error attribute on fallback")
	}
}

func TestElectWinnerDeterministicAndLiveBound(t *testing.T) {
	n, _ := newTestNode(t, "http://a", "http://b", "http://c")
	live := []string{"http://c", "http://a", "http://b"}
	first := n.electWinner(append([]string(nil), live...), 3)
	for i := 0; i < 5; i++ {
		if w := n.electWinner(append([]string(nil), live...), 3); w != first {
			t.Fatalf("winner flapped: %q then %q", first, w)
		}
	}
	found := false
	for _, url := range live {
		if url == first {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %q not in the live set %v", first, live)
	}
	// A lone candidate always wins its own view.
	if w := n.electWinner([]string{"http://a"}, 9); w != "http://a" {
		t.Fatalf("singleton view winner %q", w)
	}
}

// memStore is an in-memory Store for restart tests: state survives node
// rebuilds, and Save can be forced to fail to exercise the
// persist-before-grant rule.
type memStore struct {
	st   State
	fail bool
}

func (s *memStore) Load() (State, error) { return copyState(s.st), nil }

func (s *memStore) Save(st State) error {
	if s.fail {
		return errors.New("disk full")
	}
	s.st = copyState(st)
	return nil
}

func copyState(st State) State {
	out := State{Epoch: st.Epoch, Holder: st.Holder, Granted: make(map[uint64]string, len(st.Granted))}
	for e, h := range st.Granted {
		out.Granted[e] = h
	}
	return out
}

// TestVotesSurviveRestart is the rolling-restart split-brain regression: a
// node rebuilt from its Store must refuse to grant an epoch it already
// voted away before the crash.
func TestVotesSurviveRestart(t *testing.T) {
	clock := &fixedClock{t: time.Unix(1000, 0)}
	store := &memStore{}
	cfg := Config{Self: "http://a", Peers: []string{"http://b", "http://c"},
		Transport: nopTransport{}, Clock: clock, Store: store}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, clock.Now()).Granted {
		t.Fatal("fresh grant rejected")
	}
	if !n.HandleLease(client.LeaseRequest{Epoch: 2, Holder: "http://c"}, clock.Now()).Granted {
		t.Fatal("newer grant rejected")
	}

	// kill -9 + reboot: a brand-new Node over the same Store.
	n, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st := n.Status(); st.Epoch != 2 || st.Coordinator != "http://c" {
		t.Fatalf("restarted node forgot its state: %+v", st)
	}
	if votes := n.Grants(); votes[1] != "http://b" || votes[2] != "http://c" {
		t.Fatalf("restarted node forgot its votes: %v", votes)
	}
	// The exact split-brain seed: re-granting a pre-crash epoch to a rival.
	if n.HandleLease(client.LeaseRequest{Epoch: 2, Holder: "http://rival"}, clock.Now()).Granted {
		t.Fatal("restarted node granted an already-voted epoch to a rival")
	}
	// With a Store there is no amnesia grace: a genuinely newer epoch is
	// granted immediately after the restart.
	if !n.HandleLease(client.LeaseRequest{Epoch: 3, Holder: "http://b"}, clock.Now()).Granted {
		t.Fatal("restarted node refused a newer epoch")
	}
}

// TestPersistFailureRefusesGrant: a vote that cannot be made durable is not
// cast — the grant is refused and local state stays untouched.
func TestPersistFailureRefusesGrant(t *testing.T) {
	clock := &fixedClock{t: time.Unix(1000, 0)}
	store := &memStore{fail: true}
	n, err := New(Config{Self: "http://a", Peers: []string{"http://b", "http://c"},
		Transport: nopTransport{}, Clock: clock, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	events := obs.NewEventLog(16, "http://a")
	n.SetEvents(events)
	if n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, clock.Now()).Granted {
		t.Fatal("grant acknowledged without durable vote")
	}
	if st := n.Status(); st.Epoch != 0 || st.Grants != 0 || st.Rejects != 1 {
		t.Fatalf("state mutated by refused grant: %+v", st)
	}
	// The refusal must reach the journal, not only the log line.
	evs := events.Events(0, 0)
	if len(evs) != 1 || evs[0].Kind != "vote.persist_failed" ||
		evs[0].Fields["stage"] != "grant" || evs[0].Fields["epoch"] != "1" || evs[0].Fields["error"] == "" {
		t.Fatalf("journal after refused grant = %+v, want one vote.persist_failed{stage=grant epoch=1 error=…}", evs)
	}
	store.fail = false
	if !n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, clock.Now()).Granted {
		t.Fatal("grant refused after store recovered")
	}
}

// TestAmnesiaGraceRefusesVotes: a storeless node casts no votes and runs no
// campaigns for one full TTL after startup — the degraded-mode guard
// against forgetting pre-restart votes.
func TestAmnesiaGraceRefusesVotes(t *testing.T) {
	clock := &fixedClock{t: time.Unix(1000, 0)}
	n, err := New(Config{Self: "http://a", Transport: nopTransport{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://b"}, clock.Now()).Granted {
		t.Fatal("vote cast inside the amnesia grace period")
	}
	// A single-node fleet would win its own campaign instantly — but not
	// during the grace.
	n.campaign(clock.Now())
	if n.IsCoordinator() || n.Token() != 0 {
		t.Fatal("campaign won inside the amnesia grace period")
	}
	clock.t = clock.t.Add(n.ttl)
	n.campaign(clock.Now())
	if !n.IsCoordinator() || n.Token() != 1 {
		t.Fatalf("campaign after grace: coordinator=%v token=%d, want true/1",
			n.IsCoordinator(), n.Token())
	}
}

// probeOnlyTransport reaches every peer but fails every lease RPC — a
// campaigner under it wins the pre-vote and the election, then collects
// zero grants.
type probeOnlyTransport struct{}

func (probeOnlyTransport) Probe(ctx context.Context, peer string) error { return nil }
func (probeOnlyTransport) Lease(ctx context.Context, peer string, req client.LeaseRequest) (*client.LeaseResponse, error) {
	return nil, errors.New("lease RPCs down")
}

// TestFailedCampaignKeepsStatusClean: a campaign that cannot assemble a
// quorum must leave Status/Token reporting the OLD lease — the staged
// self-vote must not surface this node as coordinator to /v1/coordinator
// or the 409 redirects while leading is false.
func TestFailedCampaignKeepsStatusClean(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	clock := &fixedClock{t: time.Unix(1000, 0)}
	// The election winner for this live view is deterministic; BE that node,
	// so the campaign passes the winner gate and reaches the doomed round.
	scout, err := New(Config{Self: peers[0], Peers: peers, Transport: probeOnlyTransport{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	winner := scout.electWinner(append([]string(nil), peers...), 1)
	n, err := New(Config{Self: winner, Peers: peers, Transport: probeOnlyTransport{}, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	clock.t = clock.t.Add(n.ttl) // past the storeless grace

	n.campaign(clock.Now())
	if st := n.Status(); st.Role != RoleWorker || st.Coordinator != "" || st.Epoch != 0 {
		t.Fatalf("failed campaign leaked into status: %+v", st)
	}
	if n.Token() != 0 {
		t.Fatalf("failed campaign inflated the fencing token to %d", n.Token())
	}
	// The staged vote itself stands: epoch 1 is promised to this node.
	if n.HandleLease(client.LeaseRequest{Epoch: 1, Holder: "http://rival"}, clock.Now()).Granted {
		t.Fatal("staged epoch granted away to a rival")
	}
	if votes := n.Grants(); votes[1] != winner {
		t.Fatalf("staged vote record %v, want epoch 1 → %s", votes, winner)
	}
}

func TestElectIDsIsPermutation(t *testing.T) {
	ids := electIDs(8, 42)
	seen := make(map[int64]bool, 8)
	for _, id := range ids {
		if id < 1 || id > 8 || seen[id] {
			t.Fatalf("electIDs not a permutation of 1..8: %v", ids)
		}
		seen[id] = true
	}
	again := electIDs(8, 42)
	for i := range ids {
		if ids[i] != again[i] {
			t.Fatalf("electIDs not deterministic: %v vs %v", ids, again)
		}
	}
}

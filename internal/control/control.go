// Package control is the electd fleet's self-electing control plane: the
// daemons that serve leader elections use the public elect API to elect
// their own dispatch coordinator, so the serving system is kept alive by
// the very algorithms it serves.
//
// Each daemon runs a Node over a static peer list. Membership liveness
// rides the existing /healthz probes; when the coordinator dies (or was
// never chosen), the live peers run a real election — elect.Run of the
// asyncafekgafni protocol on the deterministic simulator engine, whose
// outcome is a pure function of (n, seed) — and the computed winner
// campaigns for an epoch-numbered lease. A lease is held only with a quorum of grants
// (majority of the configured peer set, the campaigner's own vote
// included), and each node votes each epoch to at most one holder, so at
// most one node can ever hold a given epoch: split-brain cannot mint two
// coordinators at the same epoch.
//
// That rule is only as durable as the votes: a node that forgets its vote
// record across a restart could grant an already-held epoch a second time.
// So votes are persisted through Config.Store (Raft-style, before the grant
// is acknowledged) and reloaded on startup; a node running without a Store
// compensates with an amnesia grace period — it casts no votes and runs no
// campaigns for one full LeaseTTL after startup, long enough for any lease
// its previous incarnation may have granted to expire, which keeps two
// quorum-confirmed coordinators from ever being live at once.
//
// The epoch doubles as a monotonic fencing token, stamped on every chunk a
// coordinator dispatches (internal/distrib) and checked by every worker
// (CheckFence, wired through internal/jobs and internal/service): a deposed
// coordinator that wakes up from a partition and keeps dispatching is
// rejected with 409 + the current epoch, the split-brain discipline of the
// ZooKeeper/etcd lineage. Overlap windows are expected — an old lease may
// still be ticking down while a new epoch is already live — and fencing,
// not clock trust, is what makes them harmless.
//
// Nodes are explicitly tickable state machines: production wraps Tick in
// the Run loop on a wall-clock ticker, while the deterministic chaos
// harness (internal/control/chaostest) drives Tick from a virtual clock
// over a scriptable in-memory transport, replaying kills and partitions at
// exact instants.
package control

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"cliquelect/elect"
	"cliquelect/elect/client"
	"cliquelect/internal/obs"
	"cliquelect/internal/xrand"
)

// Role is a node's current position in the fleet.
type Role string

// Roles. A node is a coordinator only while it holds a quorum-confirmed,
// unexpired lease; everything else is a worker.
const (
	RoleWorker      Role = "worker"
	RoleCoordinator Role = "coordinator"
)

// Defaults.
const (
	// DefaultLeaseTTL is the lease lifetime when Config.LeaseTTL is zero.
	// Renewals go out every TTL/3 and two consecutive failed holder probes
	// (also TTL/3 apart) trigger re-election, so a dead coordinator is
	// replaced within one TTL.
	DefaultLeaseTTL = 10 * time.Second
	// DefaultSpec is the election protocol used to pick campaign winners:
	// asynchronous, fault-tolerant, and deterministic in (n, seed) on the
	// simulator engine, so every candidate with the same live view computes
	// the same winner.
	DefaultSpec = "asyncafekgafni"
	// suspectThreshold is how many consecutive failed holder probes a
	// follower tolerates before treating the coordinator as dead.
	suspectThreshold = 2
)

// Clock abstracts time for the chaos harness; nil Config.Clock means wall
// time.
type Clock interface{ Now() time.Time }

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

// Transport is the control plane's view of the network: liveness probes
// and lease RPCs. Production uses NewHTTPTransport (the /healthz and
// POST /v1/lease endpoints); the chaos harness substitutes a scriptable
// in-memory fabric.
type Transport interface {
	// Probe reports nil when the peer is reachable and serving.
	Probe(ctx context.Context, peer string) error
	// Lease delivers a lease request to the peer and returns its verdict.
	Lease(ctx context.Context, peer string, req client.LeaseRequest) (*client.LeaseResponse, error)
}

// Config assembles a Node.
type Config struct {
	// Self is this daemon's URL as the peers know it. Added to Peers if
	// absent. Required.
	Self string
	// Peers lists every daemon in the fleet, self included. Quorum is a
	// majority of this set, so it must be the same list on every daemon.
	Peers []string
	// LeaseTTL is the lease lifetime; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// Transport carries probes and lease RPCs. Required.
	Transport Transport
	// Clock supplies the node's time; nil means wall time. The chaos
	// harness injects a virtual clock here.
	Clock Clock
	// Store persists the vote record (epoch + per-epoch grants) before any
	// grant is acknowledged, so the at-most-once-per-epoch rule survives
	// kill -9. Nil means in-memory only; the node then refuses to vote or
	// campaign for one full LeaseTTL after startup (the amnesia grace
	// period), trading bootstrap latency for restart safety.
	Store Store
}

// Stats is a point-in-time view of a node's control-plane state and
// counters (the service layer's electd_control_* metrics read it).
type Stats struct {
	// Role and Epoch are the /healthz role/epoch fields; Coordinator is the
	// lease holder's URL while a lease is live ("" when unknown or expired).
	Role        Role
	Epoch       uint64
	Coordinator string
	// Elections counts campaigns this node won; Grants fresh-epoch leases
	// granted; Renewals lease extensions granted; Rejects refused lease
	// requests; Stepdowns lost or expired leaderships; FenceRejects chunk
	// dispatches refused for carrying a stale token.
	Elections    int64
	Grants       int64
	Renewals     int64
	Rejects      int64
	Stepdowns    int64
	FenceRejects int64
}

// StaleTokenError is a chunk dispatch rejected by fencing: the token is
// older than the epoch this node has granted. It carries the current epoch
// and believed coordinator so the deposed dispatcher can resynchronize.
type StaleTokenError struct {
	Token       uint64
	Epoch       uint64
	Coordinator string
}

func (e *StaleTokenError) Error() string {
	return fmt.Sprintf("control: fencing token %d is stale (current epoch %d, coordinator %s)",
		e.Token, e.Epoch, e.Coordinator)
}

// Node is one daemon's control-plane state machine. All exported methods
// are safe for concurrent use; Tick performs its RPCs without holding the
// node lock, so HandleLease and CheckFence stay responsive mid-campaign.
type Node struct {
	cfg   Config
	clock Clock
	ttl   time.Duration
	peers []string // sorted, self included
	spec  elect.Spec

	mu         sync.Mutex
	epoch      uint64    // highest epoch this node voted on or adopted
	holder     string    // who the epoch vote went to (or adopted holder)
	expires    time.Time // lease expiry as last heard
	leading    bool      // this node holds a quorum-confirmed lease
	graceUntil time.Time // storeless amnesia guard: no votes or campaigns before this
	graceHeld  bool      // grace.hold journaled once per process life

	spans  *obs.SpanCollector // control.* spans; nil until SetSpans
	events *obs.EventLog      // control-plane journal; nil until SetEvents

	suspect      int       // consecutive failed probes of the holder
	lastProbe    time.Time // follower: last holder probe
	lastRenew    time.Time // coordinator: last renewal round
	lastCampaign time.Time

	granted map[uint64]string // epoch → holder this node voted for (at most one each)
	held    []uint64          // epochs this node won with quorum

	elections, grants, renewals, rejects, stepdowns, fenceRejects int64
}

// New builds a Node. The peer set is normalized (sorted, deduplicated,
// self included); the election spec is resolved from the registry.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, errors.New("control: Config.Self required")
	}
	if cfg.Transport == nil {
		return nil, errors.New("control: Config.Transport required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	spec, err := elect.Lookup(DefaultSpec)
	if err != nil {
		return nil, fmt.Errorf("control: election spec: %w", err)
	}
	seen := map[string]bool{cfg.Self: true}
	peers := []string{cfg.Self}
	for _, p := range cfg.Peers {
		if p == "" {
			return nil, fmt.Errorf("control: empty peer URL in %v", cfg.Peers)
		}
		if !seen[p] {
			seen[p] = true
			peers = append(peers, p)
		}
	}
	sort.Strings(peers)
	clock := cfg.Clock
	if clock == nil {
		clock = realClock{}
	}
	n := &Node{
		cfg:     cfg,
		clock:   clock,
		ttl:     cfg.LeaseTTL,
		peers:   peers,
		spec:    spec,
		granted: make(map[uint64]string),
	}
	if cfg.Store != nil {
		st, err := cfg.Store.Load()
		if err != nil {
			return nil, fmt.Errorf("control: %w", err)
		}
		n.epoch = st.Epoch
		n.holder = st.Holder
		for e, h := range st.Granted {
			n.granted[e] = h
		}
		if st.Holder != "" {
			// Assume the incumbent's lease is live: worst case this node
			// waits one TTL before campaigning, instead of deposing a
			// healthy coordinator on every reboot.
			n.expires = clock.Now().Add(cfg.LeaseTTL)
		}
	} else {
		// No durable vote record: sit out one full TTL so every lease the
		// previous incarnation of this process could have granted has
		// expired before this one votes or campaigns again.
		n.graceUntil = clock.Now().Add(cfg.LeaseTTL)
	}
	return n, nil
}

// Self is this node's URL in the peer set.
func (n *Node) Self() string { return n.cfg.Self }

// Peers is the normalized peer set (sorted, self included).
func (n *Node) Peers() []string { return append([]string(nil), n.peers...) }

// Now is the node's clock (virtual under the chaos harness) — the service
// layer timestamps inbound lease requests with it.
func (n *Node) Now() time.Time { return n.clock.Now() }

// LeaseTTL is the effective lease lifetime.
func (n *Node) LeaseTTL() time.Duration { return n.ttl }

// SetSpans directs control.* spans into col. Call before Run (cmd/electd
// wires the service's collector in after constructing both).
func (n *Node) SetSpans(col *obs.SpanCollector) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.spans = col
}

// SetEvents directs control-plane events into log. Call before Run
// (cmd/electd wires the service's journal in after constructing both).
func (n *Node) SetEvents(log *obs.EventLog) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.events = log
}

// quorum is the majority of the configured peer set.
func (n *Node) quorum() int { return len(n.peers)/2 + 1 }

// Token is the fencing token a coordinator stamps on dispatched chunks:
// the highest epoch this node knows. distrib.Config.Fence points here.
func (n *Node) Token() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// IsCoordinator reports whether this node currently holds a
// quorum-confirmed, unexpired lease.
func (n *Node) IsCoordinator() bool {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leading && now.Before(n.expires)
}

// Status snapshots the node's role, epoch, believed coordinator and
// counters.
func (n *Node) Status() Stats {
	now := n.clock.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Stats{
		Role:         RoleWorker,
		Epoch:        n.epoch,
		Elections:    n.elections,
		Grants:       n.grants,
		Renewals:     n.renewals,
		Rejects:      n.rejects,
		Stepdowns:    n.stepdowns,
		FenceRejects: n.fenceRejects,
	}
	if now.Before(n.expires) {
		st.Coordinator = n.holder
		if n.leading {
			st.Role = RoleCoordinator
		}
	}
	return st
}

// Held returns the epochs this node won with quorum, in order — the chaos
// harness's exactly-one-holder-per-epoch evidence.
func (n *Node) Held() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]uint64(nil), n.held...)
}

// Grants returns a copy of this node's vote record: epoch → the one holder
// it granted that epoch to.
func (n *Node) Grants() map[uint64]string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[uint64]string, len(n.granted))
	for e, h := range n.granted {
		out[e] = h
	}
	return out
}

// HandleLease is the grant decision — the server side of POST /v1/lease,
// gated by the same vote record a campaigner's staged self-vote uses, so
// self-votes and peer votes share one at-most-once-per-epoch rule:
//
//   - a request for a NEWER epoch this node has not voted away is granted —
//     persisted as this node's single vote for that epoch BEFORE the reply,
//     so the vote survives kill -9 (a coordinator granting away is deposed),
//   - a request matching the current epoch AND holder is a renewal,
//   - everything else — stale epochs, conflicting votes, any new vote
//     inside the startup amnesia grace — is rejected, answering the current
//     epoch and holder so stale campaigners resynchronize.
func (n *Node) HandleLease(req client.LeaseRequest, now time.Time) client.LeaseResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	switch {
	case req.Epoch > n.epoch && req.Holder != "" && n.voteFreeLocked(req.Epoch, req.Holder) && !now.Before(n.graceUntil):
		if err := n.saveLocked(req.Epoch, req.Holder, req.Epoch, req.Holder); err != nil {
			// An unpersisted vote is an uncast vote: reject rather than
			// acknowledge a grant a restart could forget.
			n.rejects++
			n.persistFailedLocked("grant", req.Epoch, err)
			return client.LeaseResponse{Granted: false, Epoch: n.epoch, Holder: n.holder}
		}
		deposed := n.leading && req.Holder != n.cfg.Self
		n.epoch = req.Epoch
		n.holder = req.Holder
		n.expires = now.Add(n.ttl)
		n.suspect = 0
		n.granted[req.Epoch] = req.Holder
		n.grants++
		n.events.Emit("lease.grant",
			"epoch", strconv.FormatUint(req.Epoch, 10), "holder", req.Holder)
		if deposed {
			n.leading = false
			n.stepdowns++
			n.events.Emit("lease.stepdown",
				"epoch", strconv.FormatUint(req.Epoch, 10), "reason", "deposed", "by", req.Holder)
		}
		return client.LeaseResponse{Granted: true, Epoch: n.epoch, Holder: n.holder}
	case req.Epoch == n.epoch && req.Holder != "" && req.Holder == n.holder:
		n.expires = now.Add(n.ttl)
		n.suspect = 0
		n.renewals++ // counted, not journaled: a heartbeat is not a decision
		return client.LeaseResponse{Granted: true, Epoch: n.epoch, Holder: n.holder}
	default:
		n.rejects++
		return client.LeaseResponse{Granted: false, Epoch: n.epoch, Holder: n.holder}
	}
}

// voteFreeLocked reports whether this node can still vote epoch to holder:
// either no vote for that epoch exists, or the standing vote already names
// the same holder (grants are idempotent per (epoch, holder)).
func (n *Node) voteFreeLocked(epoch uint64, holder string) bool {
	v, ok := n.granted[epoch]
	return !ok || v == holder
}

// saveLocked persists the prospective durable state — current vote record
// plus the pending (voteEpoch → voteHolder) vote under the prospective
// epoch/holder — through the Store, before the caller acts on it. Nil Store
// means nothing to do. Called with n.mu held.
func (n *Node) saveLocked(epoch uint64, holder string, voteEpoch uint64, voteHolder string) error {
	if n.cfg.Store == nil {
		return nil
	}
	st := State{Epoch: epoch, Holder: holder, Granted: make(map[uint64]string, len(n.granted)+1)}
	for e, h := range n.granted {
		st.Granted[e] = h
	}
	if voteEpoch != 0 {
		st.Granted[voteEpoch] = voteHolder
	}
	return n.cfg.Store.Save(st)
}

// persistFailedLocked journals a vote record the Store refused to save, so
// a node whose state file is failing shows up in the event log and not
// only in its own log lines. Stage names the refused step: "grant",
// "campaign", "win" or "adopt".
func (n *Node) persistFailedLocked(stage string, epoch uint64, err error) {
	n.events.Emit("vote.persist_failed",
		"stage", stage, "epoch", strconv.FormatUint(epoch, 10), "error", err.Error())
}

// CheckFence accepts or rejects a dispatched chunk's fencing token: tokens
// below this node's epoch come from a deposed coordinator and are refused
// with a StaleTokenError (the daemon's 409). Token 0 is an unfenced legacy
// dispatcher (a plain sweep CLI fleet) and is always accepted; tokens from
// the future are accepted too — the dispatcher simply knows a newer
// election than we do.
func (n *Node) CheckFence(token uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if token == 0 || token >= n.epoch {
		return nil
	}
	n.fenceRejects++
	err := &StaleTokenError{Token: token, Epoch: n.epoch, Coordinator: n.holder}
	n.events.Emit("fence.reject",
		"token", strconv.FormatUint(token, 10), "epoch", strconv.FormatUint(n.epoch, 10))
	return err
}

// Run ticks the node on a wall-clock cadence (TTL/6) until stop closes —
// the production driver around the explicitly-tickable state machine.
func (n *Node) Run(stop <-chan struct{}) {
	t := time.NewTicker(n.ttl / 6)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			n.Tick(n.clock.Now())
		}
	}
}

// Tick advances the state machine one step at the given instant:
// coordinators renew, followers watch the holder, and everyone else
// (expired lease, dead holder, cold start) campaigns. RPCs run without the
// node lock.
func (n *Node) Tick(now time.Time) {
	n.mu.Lock()
	if n.leading && !now.Before(n.expires) {
		// Our own lease ran out without a quorum of renewals: stop acting
		// as coordinator before anyone else needs to fence us off.
		n.leading = false
		n.stepdowns++
		n.events.Emit("lease.stepdown",
			"epoch", strconv.FormatUint(n.epoch, 10), "reason", "expired")
	}
	leading := n.leading
	holder, expires := n.holder, n.expires
	epoch := n.epoch
	n.mu.Unlock()

	switch {
	case leading:
		n.renew(now, epoch)
	case holder != "" && holder != n.cfg.Self && now.Before(expires):
		n.watch(now, holder)
	default:
		n.campaign(now)
	}
}

// rpcCtx bounds one probe or lease RPC well inside a tick interval.
func (n *Node) rpcCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), min(n.ttl/3, 2*time.Second))
}

// renew extends the lease: one round of renewal RPCs every TTL/3. Quorum
// (own vote included) pushes expiry out; a response revealing a newer
// epoch means this node was deposed and adopts the new coordinator.
func (n *Node) renew(now time.Time, epoch uint64) {
	n.mu.Lock()
	if now.Sub(n.lastRenew) < n.ttl/3 {
		n.mu.Unlock()
		return
	}
	n.lastRenew = now
	n.mu.Unlock()

	// Own standing vote plus one concurrent fan-out round: the round costs
	// one RPC timeout no matter how many peers are unreachable, so renewal
	// always lands well inside the TTL/3 cadence.
	granted := 1 + n.fanLease(now, client.LeaseRequest{Epoch: epoch, Holder: n.cfg.Self})
	if granted >= n.quorum() {
		n.mu.Lock()
		if n.leading && n.epoch == epoch {
			n.expires = now.Add(n.ttl)
		}
		n.mu.Unlock()
	}
}

// fanLease delivers req to every peer but self concurrently — one slow or
// dead peer no longer stretches a round by a whole RPC timeout — then
// applies the responses in sorted peer order, so the chaos harness replays
// identically: grants are tallied, rejections revealing a newer epoch
// adopted. Returns the number of peer grants (own vote excluded).
func (n *Node) fanLease(now time.Time, req client.LeaseRequest) int {
	resps := make([]*client.LeaseResponse, len(n.peers))
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if p == n.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			ctx, cancel := n.rpcCtx()
			resp, err := n.cfg.Transport.Lease(ctx, p, req)
			cancel()
			if err == nil {
				resps[i] = resp
			}
		}(i, p)
	}
	wg.Wait()
	granted := 0
	for _, resp := range resps {
		if resp == nil {
			continue
		}
		if resp.Granted {
			granted++
		} else {
			n.adopt(now, resp)
		}
	}
	return granted
}

// probeLive probes every peer concurrently and returns the live view, self
// included, in sorted order.
func (n *Node) probeLive() []string {
	up := make([]bool, len(n.peers))
	var wg sync.WaitGroup
	for i, p := range n.peers {
		if p == n.cfg.Self {
			continue
		}
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			ctx, cancel := n.rpcCtx()
			up[i] = n.cfg.Transport.Probe(ctx, p) == nil
			cancel()
		}(i, p)
	}
	wg.Wait()
	live := []string{n.cfg.Self}
	for i, p := range n.peers {
		if p != n.cfg.Self && up[i] {
			live = append(live, p)
		}
	}
	sort.Strings(live)
	return live
}

// watch is the follower's fast failure detector: probe the lease holder
// every TTL/3 and campaign after suspectThreshold consecutive failures —
// without waiting for the local lease copy to run out, which is what keeps
// re-election within one TTL of the coordinator's death.
func (n *Node) watch(now time.Time, holder string) {
	n.mu.Lock()
	if now.Sub(n.lastProbe) < n.ttl/3 {
		n.mu.Unlock()
		return
	}
	n.lastProbe = now
	n.mu.Unlock()

	ctx, cancel := n.rpcCtx()
	err := n.cfg.Transport.Probe(ctx, holder)
	cancel()

	n.mu.Lock()
	if err == nil {
		n.suspect = 0
		n.mu.Unlock()
		return
	}
	n.suspect++
	dead := n.suspect >= suspectThreshold
	if dead {
		n.events.Emit("holder.unreachable",
			"holder", holder, "probes", strconv.Itoa(n.suspect), "error", err.Error())
	}
	n.mu.Unlock()
	if dead {
		n.campaign(now)
	}
}

// campaign runs one leadership attempt: probe the fleet, let the elect
// protocol pick the winner among the live peers, and — only if this node
// IS the winner — stage a vote for itself and collect a quorum of grants
// for the next epoch. Losing candidates simply stand down; they will be
// granted to by the winner's campaign or retry next tick.
func (n *Node) campaign(now time.Time) {
	n.mu.Lock()
	if now.Before(n.graceUntil) {
		// Amnesia guard (no Config.Store): a pre-restart incarnation of this
		// process may have votes outstanding that this one cannot remember.
		if !n.graceHeld {
			n.graceHeld = true
			n.events.Emit("grace.hold",
				"until", n.graceUntil.Format(time.RFC3339))
		}
		n.mu.Unlock()
		return
	}
	if now.Sub(n.lastCampaign) < n.ttl/6 {
		n.mu.Unlock()
		return
	}
	n.lastCampaign = now
	next := n.epoch + 1
	n.mu.Unlock()

	live := n.probeLive()
	// Pre-vote gate: with fewer than a quorum reachable no campaign can
	// win, and self-voting anyway would inflate this node's epoch in
	// isolation — a minority partition would then surface tokens NEWER than
	// the majority's real epoch, sailing through fencing. Don't burn the
	// epoch (or an election run) until victory is possible.
	if len(live) < n.quorum() {
		return
	}

	winner := n.electWinner(live, next)
	if winner != n.cfg.Self {
		return
	}

	// Stage our own vote through the same at-most-once record peers use,
	// WITHOUT adopting ourselves as epoch/holder: until a quorum confirms,
	// Status and Token must keep reporting the old lease, or /v1/coordinator
	// and the 409 redirects would point clients at a campaigner that will
	// itself 409 them. If a request for an epoch >= next already landed
	// here, the vote fails and the campaign is over.
	n.mu.Lock()
	if next <= n.epoch || !n.voteFreeLocked(next, n.cfg.Self) {
		n.mu.Unlock()
		return
	}
	if err := n.saveLocked(n.epoch, n.holder, next, n.cfg.Self); err != nil {
		n.persistFailedLocked("campaign", next, err)
		n.mu.Unlock()
		return
	}
	n.granted[next] = n.cfg.Self
	n.grants++
	n.events.Emit("campaign.start",
		"epoch", strconv.FormatUint(next, 10), "live", strconv.Itoa(len(live)))
	n.mu.Unlock()

	granted := 1 + n.fanLease(now, client.LeaseRequest{Epoch: next, Holder: n.cfg.Self})

	n.mu.Lock()
	defer n.mu.Unlock()
	// Commit only if nothing newer was adopted while the round ran; the
	// staged vote itself stands either way (it was promised to peers' view
	// of epoch `next` the moment it was persisted).
	if granted >= n.quorum() && next > n.epoch && n.granted[next] == n.cfg.Self {
		n.epoch = next
		n.holder = n.cfg.Self
		n.leading = true
		n.expires = now.Add(n.ttl)
		n.suspect = 0
		n.lastRenew = now
		n.elections++
		n.held = append(n.held, next)
		if err := n.saveLocked(n.epoch, n.holder, 0, ""); err != nil {
			n.persistFailedLocked("win", next, err)
		}
		n.events.Emit("campaign.won",
			"epoch", strconv.FormatUint(next, 10),
			"grants", strconv.Itoa(granted), "peers", strconv.Itoa(len(n.peers)))
	} else {
		n.events.Emit("campaign.lost",
			"epoch", strconv.FormatUint(next, 10), "grants", strconv.Itoa(granted))
	}
}

// adopt fast-forwards to a newer epoch learned from a lease rejection, so
// a deposed or lagging node converges on the current coordinator instead
// of campaigning against it.
func (n *Node) adopt(now time.Time, resp *client.LeaseResponse) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if resp.Epoch <= n.epoch {
		return
	}
	if err := n.saveLocked(resp.Epoch, resp.Holder, 0, ""); err != nil {
		// Staying behind is safe (rejections will keep arriving); adopting
		// an epoch a restart would forget is not.
		n.persistFailedLocked("adopt", resp.Epoch, err)
		return
	}
	if n.leading {
		n.leading = false
		n.stepdowns++
		n.events.Emit("lease.stepdown",
			"epoch", strconv.FormatUint(resp.Epoch, 10), "reason", "deposed", "by", resp.Holder)
	}
	n.epoch = resp.Epoch
	n.holder = resp.Holder
	n.expires = now.Add(n.ttl)
	n.suspect = 0
}

// electWinner dogfoods the public elect API to pick the campaign winner
// among the live peers: the sorted live URLs become nodes 1..k of a real
// election on the deterministic asynchronous simulator (EngineAsync), whose
// outcome is a pure function of (k, seed), with the seed and ID permutation
// derived from the live membership view itself — so every candidate sharing
// a live view computes the same winner without any extra coordination, even
// when their epoch counters have drifted apart (seeding by the candidate's
// own target epoch would let two drifted candidates each compute the OTHER
// as winner and livelock).
// Divergent views are arbitrated by the lease quorum, not here. If the run
// misbehaves (it should not: the spec is registered as deterministic), the
// lexicographically largest live URL wins, keeping the control plane alive.
func (n *Node) electWinner(live []string, epoch uint64) string {
	sort.Strings(live)
	if len(live) == 1 {
		return live[0]
	}
	k := len(live)
	// FNV-1a over the sorted live view, SplitMix64-finalized: a shared,
	// deterministic seed every candidate with this view derives identically.
	seed := uint64(0xCBF29CE484222325)
	for _, url := range live {
		for i := 0; i < len(url); i++ {
			seed ^= uint64(url[i])
			seed *= 0x100000001B3
		}
		seed ^= ','
		seed *= 0x100000001B3
	}
	seed = (seed + 0x9E3779B97F4A7C15) * 0xBF58476D1CE4E5B9
	// The deterministic simulator engine, NOT EngineLive: agreement without
	// coordination needs the winner to be a pure function of (k, seed), and
	// on the live engine goroutine scheduling decides message order — two
	// candidates running the identical election there can crown different
	// leaders. The simulator runs the same protocol code under deterministic
	// delivery, which is exactly the property the control plane is built on.
	began := time.Now()
	res, err := elect.Run(n.spec,
		elect.WithEngine(elect.EngineAsync),
		elect.WithN(k),
		elect.WithSeed(seed),
		elect.WithIDs(electIDs(k, seed)),
	)
	if err == nil && (res.Leader < 0 || res.Leader >= k) {
		err = fmt.Errorf("control: election run named leader %d of %d nodes", res.Leader, k)
	}
	winner := live[k-1]
	if err == nil {
		winner = live[res.Leader]
	}
	if spans := n.spanCollector(); spans != nil {
		attrs := map[string]string{
			"spec":   n.spec.Name,
			"epoch":  strconv.FormatUint(epoch, 10),
			"n":      strconv.Itoa(k),
			"winner": winner,
			"msgs":   strconv.FormatInt(res.Messages, 10),
		}
		if err != nil {
			attrs["error"] = err.Error() // the winner fell back to the max URL
		}
		spans.Add(obs.NewSpan(obs.NewSpanContext(), obs.SpanID{}, "control.elect", "control",
			began, time.Since(began), attrs))
	}
	return winner
}

// electIDs deals a seeded permutation of 1..k — always a valid assignment
// in the elect ID universe — so the winning index varies with the epoch
// rather than always favoring one list position.
func electIDs(k int, seed uint64) []int64 {
	ids := make([]int64, k)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	rng := xrand.New(seed ^ 0xD1B54A32D192ED03)
	rng.Shuffle(k, func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func (n *Node) spanCollector() *obs.SpanCollector {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.spans
}

// Package platform assembles the multi-platform simulation of cross
// online matching: each spatial crowdsourcing platform runs one online
// matcher over its own request stream and waiting list, while the Hub
// shares every platform's unoccupied workers with the others
// (Definition 2.3: cooperative platforms "only share the information of
// their unoccupied workers"), makes cross-platform claims atomic, and
// keeps worker acceptance histories.
//
// The package also provides the OFF baseline (Offline): the offline
// optimum computed as a maximum-weight bipartite matching over every
// feasible worker-request edge, per Section II-B of the paper.
package platform

import (
	"fmt"
	"sync"
	"sync/atomic"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/pricing"
)

// Hub is the cooperation layer between platforms. It references each
// platform's waiting-list pool (owned by that platform's matcher), so an
// inner assignment made by a matcher is immediately visible to every
// cooperating platform — and a cooperative claim removes the worker from
// its owner's waiting list, satisfying the "deleted from all its waiting
// lists over all platforms" requirement.
//
// One goroutine drives a hub's own matchers, but the sharded engine's
// other shards scan and claim against it from theirs, so the hub is safe
// for concurrent use. Claims are genuinely atomic: every tracked worker
// carries a claim word that racing claimants CAS, and the owner pool's
// locked removal is the commit point, so of any number of concurrent
// claims (and the owner's own inner assignment) exactly one takes the
// worker. Registration (RegisterPlatform, SetMetrics, CoopDisabled) must
// finish before the run consumes events: pools, order and configuration
// are read without locking afterwards.
type Hub struct {
	pools map[core.PlatformID]*online.Pool
	order []core.PlatformID // registration order, for deterministic scans
	// CoopDisabled turns the hub off: every view returns no outer
	// workers, degrading COM to TOTA (the W_out = empty ablation).
	CoopDisabled bool
	// metrics, when non-nil, receives claim-conflict counts. Set before
	// the run via SetMetrics.
	metrics *metrics.Collector
	// faults, when non-nil, injects cooperation faults and guards every
	// partner platform with a circuit breaker (see internal/fault). Set
	// before the run via SetFaults; nil keeps the fault-free hot path
	// untouched.
	faults *fault.Injector
	// sealed flips when the run's (possibly concurrent) consume phase
	// begins: registration afterwards would race the documented
	// lock-free reads of pools, order and configuration, so it is
	// rejected loudly instead of silently corrupting the run.
	sealed atomic.Bool

	// mu guards the tables below. A worker's record exists exactly while
	// it waits: it is deleted when the worker is claimed by a cooperating
	// platform or assigned by its own (WorkerAssigned), so long recycled
	// runs do not grow the map without bound.
	mu      sync.Mutex
	workers map[int64]*workerRec
	lent    map[core.PlatformID]int
}

// workerRec is everything the hub keeps for one waiting worker: one
// map entry and one 40-byte allocation per arrival. The history's values
// are the event's own slice whenever that is ascending, as every built
// stream's are (pricing.MakeHistory).
type workerRec struct {
	owner   core.PlatformID
	hist    pricing.History
	claimed atomic.Bool // the claim word racing platforms CAS
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{
		pools:   make(map[core.PlatformID]*online.Pool),
		workers: make(map[int64]*workerRec),
		lent:    make(map[core.PlatformID]int),
	}
}

// SetMetrics attaches the collector that receives claim-conflict
// counts. It must be called before the run starts; calling it on a
// sealed hub panics, because the collector is read without
// synchronization by every goroutine that claims.
func (h *Hub) SetMetrics(m *metrics.Collector) {
	if h.sealed.Load() {
		panic("platform: Hub.SetMetrics called after the concurrent phase started; attach the collector before Run")
	}
	h.metrics = m
}

// SetFaults attaches the fault injector guarding the cooperation path.
// Like SetMetrics it must run before the concurrent phase; calling it
// on a sealed hub panics.
func (h *Hub) SetFaults(in *fault.Injector) {
	if h.sealed.Load() {
		panic("platform: Hub.SetFaults called after the concurrent phase started; attach the injector before Run")
	}
	h.faults = in
}

// seal marks the start of the run's consume phase. From here on the
// pools, platform order, collector and injector are read without
// locking — by the engine's goroutine and, under shards, by the other
// shards' — so late registration is a contract violation and is rejected
// loudly.
func (h *Hub) seal() { h.sealed.Store(true) }

// RegisterPlatform attaches a platform's waiting-list pool. Must be
// called once per platform before its workers arrive (and before any
// concurrent access begins); registering on a sealed hub returns an
// error instead of silently racing the running engine.
func (h *Hub) RegisterPlatform(id core.PlatformID, pool *online.Pool) error {
	if h.sealed.Load() {
		return fmt.Errorf("platform: RegisterPlatform(%d) called after the concurrent phase started; register every platform before Run", id)
	}
	if id == core.NoPlatform {
		return fmt.Errorf("platform: cannot register the zero platform")
	}
	if _, dup := h.pools[id]; dup {
		return fmt.Errorf("platform: platform %d already registered", id)
	}
	h.pools[id] = pool
	h.order = append(h.order, id)
	return nil
}

// WorkerArrived records ownership and acceptance history for a worker
// that just joined its platform's waiting list. The worker's History
// field is validated once here; matchers see it through Candidate.
func (h *Hub) WorkerArrived(w *core.Worker) error {
	if _, ok := h.pools[w.Platform]; !ok {
		return fmt.Errorf("platform: worker %d arrived for unregistered platform %d", w.ID, w.Platform)
	}
	hist, err := pricing.MakeHistory(w.History)
	if err != nil {
		return fmt.Errorf("platform: worker %d: %w", w.ID, err)
	}
	rec := &workerRec{owner: w.Platform, hist: hist}
	h.mu.Lock()
	h.workers[w.ID] = rec
	h.mu.Unlock()
	return nil
}

// WorkerAssigned releases the hub's record of a worker just assigned by
// its own platform's matcher (an inner assignment never passes through
// Claim). Cooperative claims clean up in Claim itself, so calling this
// for them is a harmless no-op. Without this eviction the table grew
// without bound on long recycled runs.
func (h *Hub) WorkerAssigned(workerID int64) {
	h.mu.Lock()
	delete(h.workers, workerID)
	h.mu.Unlock()
}

// TrackedWorkers reports how many workers the hub currently holds
// records for — exactly the waiting (unassigned) workers.
func (h *Hub) TrackedWorkers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.workers)
}

// HistoryOf returns the acceptance history recorded for a worker.
func (h *Hub) HistoryOf(workerID int64) (*pricing.History, bool) {
	h.mu.Lock()
	rec := h.workers[workerID]
	h.mu.Unlock()
	if rec == nil {
		return nil, false
	}
	return &rec.hist, true
}

// ViewFor returns the CoopView platform id uses to see the other
// platforms' unoccupied workers. A view is bound to the goroutine
// driving that platform's matcher: its EligibleOuter buffer is reused
// across calls and must not be shared.
func (h *Hub) ViewFor(id core.PlatformID) online.CoopView {
	return &hubView{hub: h, self: id}
}

type hubView struct {
	hub  *Hub
	self core.PlatformID
	// now is the stream time of the request currently being decided,
	// recorded by EligibleOuter so Claim can place faults and breaker
	// cooldowns on the stream timeline.
	now core.Time
	// cands and workers are per-view scratch, reused across requests so
	// the hottest cooperative query performs no per-request allocation.
	// Safe because exactly one goroutine drives each view.
	cands   []online.Candidate
	workers []*core.Worker
}

// EligibleOuter implements online.CoopView: unoccupied workers of every
// other platform satisfying the Definition 2.6 constraints for r. The
// returned slice is valid until the next call on this view.
//
// With a fault injector attached, each partner platform is probed first
// under the deadline/retry/backoff policy; a partner whose probe fails
// (or whose circuit breaker is open) contributes no workers, so against
// fully dark partners the matcher degrades to inner-only (TOTA)
// matching instead of stalling.
func (v *hubView) EligibleOuter(r *core.Request) []online.Candidate {
	h := v.hub
	if h.CoopDisabled {
		return nil
	}
	v.now = r.Arrival
	v.workers = v.workers[:0]
	for _, pid := range h.order {
		if pid == v.self {
			continue
		}
		if h.faults != nil && !h.faults.ProbePartner(v.self, pid, r.Arrival) {
			continue
		}
		v.workers = h.pools[pid].AppendCovering(v.workers, r)
	}
	v.cands = v.cands[:0]
	if len(v.workers) == 0 {
		return v.cands
	}
	h.mu.Lock()
	for _, w := range v.workers {
		rec := h.workers[w.ID]
		if rec == nil {
			// Assigned by its owner between the pool scan and now; the
			// worker is already out of every waiting list.
			continue
		}
		v.cands = append(v.cands, online.Candidate{Worker: w, History: &rec.hist})
	}
	h.mu.Unlock()
	return v.cands
}

// Claim implements online.CoopView: atomically remove the worker from
// its owner's waiting list. The per-worker claim word arbitrates racing
// platforms without touching the owner pool's lock; the locked pool
// removal then commits the claim (or reports that the owner's inner
// assignment won the race).
func (v *hubView) Claim(workerID int64) bool {
	return v.hub.claim(v.self, workerID, v.now, true)
}

// claim is the hub's atomic claim commit point, shared by the in-hub
// cooperation path (hubView.Claim) and the sharded engine's cross-shard
// borrows, which claim against a *remote* shard's hub. useFaults gates
// the fault injector: remote claims skip it, because the injector's RNG
// and breakers belong to the hub's own shard goroutines and the
// claim-protocol gates carry their own breaker machinery.
func (h *Hub) claim(self core.PlatformID, workerID int64, now core.Time, useFaults bool) bool {
	if h.CoopDisabled {
		return false
	}
	h.mu.Lock()
	rec := h.workers[workerID]
	h.mu.Unlock()
	if rec == nil {
		// Matchers only claim workers they just sighted through
		// EligibleOuter, so a missing record means the worker was
		// assigned — by another platform's claim or its owner's inner
		// match — between the sighting and this claim: a lost race.
		h.metrics.Add(metrics.ClaimConflicts, 1)
		return false
	}
	owner := rec.owner
	if owner == self {
		// Semantic refusal, not a race: the coop view never hands out
		// a platform's own workers.
		return false
	}
	if useFaults && h.faults != nil && !h.faults.ClaimPartner(self, owner, now) {
		// Injected transient claim error (retries exhausted) or an open
		// breaker: to the matcher this is indistinguishable from a lost
		// race — it moves on to the next accepting candidate.
		return false
	}
	if !rec.claimed.CompareAndSwap(false, true) {
		// Another platform's claim got here first.
		h.metrics.Add(metrics.ClaimConflicts, 1)
		return false
	}
	pool := h.pools[owner]
	if pool == nil || !pool.Remove(workerID) {
		// The owner's inner assignment raced the claim and won; it will
		// evict the record via WorkerAssigned.
		h.metrics.Add(metrics.ClaimConflicts, 1)
		return false
	}
	h.mu.Lock()
	delete(h.workers, workerID)
	h.lent[owner]++
	h.mu.Unlock()
	return true
}

// Lent returns how many workers each platform has lent out through the
// hub — the supply side of the cooperation ledger (the demand side is
// each platform's ServedOuter).
func (h *Hub) Lent() map[core.PlatformID]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[core.PlatformID]int, len(h.lent))
	for pid, n := range h.lent {
		out[pid] = n
	}
	return out
}

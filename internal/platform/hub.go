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
// A hub is not safe for concurrent use: it belongs to the one goroutine
// that drives its engine (see Engine), which is also the only one that
// touches the registered pools. A claim is atomic because nothing else
// runs during it; the owner pool's removal is its commit point.
// Registration (RegisterPlatform, SetMetrics, SetFaults, CoopDisabled)
// comes before the first event.
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

	// A worker's record exists exactly while it waits: it is deleted when
	// the worker is claimed by a cooperating platform or assigned by its
	// own (WorkerAssigned), so long recycled runs do not grow the map
	// without bound.
	workers map[int64]*workerRec
	lent    map[core.PlatformID]int
}

// workerRec is everything the hub keeps for one waiting worker: one
// map entry and one 32-byte allocation per arrival. The history's values
// are the event's own slice whenever that is ascending, as every built
// stream's are (pricing.MakeHistory).
type workerRec struct {
	owner core.PlatformID
	hist  pricing.History
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
// counts, before the run starts.
func (h *Hub) SetMetrics(m *metrics.Collector) { h.metrics = m }

// SetFaults attaches the fault injector guarding the cooperation path,
// before the run starts.
func (h *Hub) SetFaults(in *fault.Injector) { h.faults = in }

// RegisterPlatform attaches a platform's waiting-list pool. Must be
// called once per platform before its workers arrive.
func (h *Hub) RegisterPlatform(id core.PlatformID, pool *online.Pool) error {
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
	h.workers[w.ID] = &workerRec{owner: w.Platform, hist: hist}
	return nil
}

// WorkerAssigned releases the hub's record of a worker just assigned by
// its own platform's matcher (an inner assignment never passes through
// Claim). Cooperative claims clean up in Claim itself, so calling this
// for them is a harmless no-op. Without this eviction the table grew
// without bound on long recycled runs.
func (h *Hub) WorkerAssigned(workerID int64) { delete(h.workers, workerID) }

// TrackedWorkers reports how many workers the hub currently holds
// records for — exactly the waiting (unassigned) workers.
func (h *Hub) TrackedWorkers() int { return len(h.workers) }

// HistoryOf returns the acceptance history recorded for a worker.
func (h *Hub) HistoryOf(workerID int64) (*pricing.History, bool) {
	rec := h.workers[workerID]
	if rec == nil {
		return nil, false
	}
	return &rec.hist, true
}

// ViewFor returns the CoopView platform id uses to see the other
// platforms' unoccupied workers. Its EligibleOuter buffer is reused
// across calls.
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
	for _, w := range v.workers {
		rec := h.workers[w.ID]
		if rec == nil {
			// In a pool but never announced through WorkerArrived: no
			// history to price it with.
			continue
		}
		v.cands = append(v.cands, online.Candidate{Worker: w, History: &rec.hist})
	}
	return v.cands
}

// Claim implements online.CoopView: remove the worker from its owner's
// waiting list and from the hub's tables.
func (v *hubView) Claim(workerID int64) bool {
	h := v.hub
	if h.CoopDisabled {
		return false
	}
	rec := h.workers[workerID]
	if rec == nil {
		// Not waiting: already assigned, or never arrived.
		return false
	}
	owner := rec.owner
	if owner == v.self {
		// The coop view never hands out a platform's own workers.
		return false
	}
	if h.faults != nil && !h.faults.ClaimPartner(v.self, owner, v.now) {
		// Injected transient claim error (retries exhausted) or an open
		// breaker: the matcher moves on to the next accepting candidate.
		return false
	}
	pool := h.pools[owner]
	if pool == nil || !pool.Remove(workerID) {
		// The owner's matcher took the worker and the engine has not yet
		// evicted the record via WorkerAssigned.
		h.metrics.Add(metrics.ClaimConflicts, 1)
		return false
	}
	delete(h.workers, workerID)
	h.lent[owner]++
	return true
}

// Lent returns how many workers each platform has lent out through the
// hub — the supply side of the cooperation ledger (the demand side is
// each platform's ServedOuter).
func (h *Hub) Lent() map[core.PlatformID]int {
	out := make(map[core.PlatformID]int, len(h.lent))
	for pid, n := range h.lent {
		out[pid] = n
	}
	return out
}

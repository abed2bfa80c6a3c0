// Package platform assembles the multi-platform simulation of cross
// online matching: each spatial crowdsourcing platform runs one online
// matcher over its own request stream and waiting list, while the Hub
// shares every platform's unoccupied workers with the others
// (Definition 2.3: cooperative platforms "only share the information of
// their unoccupied workers") and makes cross-platform claims atomic.
//
// The package also provides the OFF baseline (Offline): the offline
// optimum computed as a maximum-weight bipartite matching over every
// feasible worker-request edge, per Section II-B of the paper.
package platform

import (
	"fmt"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/online"
)

// Hub is the cooperation layer between platforms. It references each
// platform's waiting-list pool (owned by that platform's matcher), so an
// inner assignment made by a matcher is immediately visible to every
// cooperating platform — and a cooperative claim removes the worker from
// its owner's waiting list, satisfying the "deleted from all its waiting
// lists over all platforms" requirement. The pools are the only
// per-worker state: a waiting worker is one pool slot, history
// included.
//
// A hub is not safe for concurrent use: it belongs to the one goroutine
// that drives its engine (see Engine), which is also the only one that
// touches the registered pools. A claim is atomic because nothing else
// runs during it; the owner pool's removal is its commit point.
// Registration (RegisterPlatform, CoopDisabled, the engine's fault
// injector) comes before the first event.
type Hub struct {
	pools map[core.PlatformID]*online.Pool
	order []core.PlatformID // registration order, for deterministic scans
	// CoopDisabled turns the hub off: every view returns no outer
	// workers, degrading COM to TOTA (the W_out = empty ablation).
	CoopDisabled bool
	// faults, when non-nil, injects cooperation faults and guards every
	// partner platform with a circuit breaker (see internal/fault). The
	// engine sets it before the run; nil keeps the fault-free hot path
	// untouched.
	faults *fault.Injector
	// now is the stream time every probe and claim is placed at: the
	// engine sets it to an event's time before a request is decided and
	// to the flush tick before a window is, so a windowed matcher's
	// probes and claims happen at its flush.
	now core.Time
}

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{pools: make(map[core.PlatformID]*online.Pool)}
}

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

// WorkerArrived is inert: the worker's pool slot holds everything the
// hub reads. Kept only because the frozen bench/probes.go calls it; the
// next benchmark PR deletes it.
func (h *Hub) WorkerArrived(*core.Worker) error { return nil }

// WorkerAssigned is inert, like WorkerArrived, for the same caller.
func (h *Hub) WorkerAssigned(int64) {}

// ViewFor returns the CoopView platform id uses to see the other
// platforms' unoccupied workers. Its EligibleOuter buffer is reused
// across calls.
func (h *Hub) ViewFor(id core.PlatformID) online.CoopView {
	return &hubView{hub: h, self: id}
}

type hubView struct {
	hub  *Hub
	self core.PlatformID
	// cands is per-view scratch, reused across requests so the hottest
	// cooperative query performs no per-request allocation.
	cands []online.Candidate
}

// EligibleOuter implements online.CoopView: unoccupied workers of every
// other platform satisfying the Definition 2.6 constraints for r, each
// with the history its pool slot holds, partners in registration order.
// The returned slice is valid until the next call on this view.
//
// With a fault injector attached, each partner platform is probed first,
// at the hub's clock, under the fixed retry policy; a partner whose
// probe fails (or whose circuit breaker is open) contributes no workers,
// so against fully dark partners the matcher degrades to inner-only
// (TOTA) matching instead of stalling.
func (v *hubView) EligibleOuter(r *core.Request) []online.Candidate {
	h := v.hub
	if h.CoopDisabled {
		return nil
	}
	v.cands = v.cands[:0]
	for _, pid := range h.order {
		if pid == v.self {
			continue
		}
		if h.faults != nil && !h.faults.ProbePartner(v.self, pid, h.now) {
			continue
		}
		v.cands = h.pools[pid].AppendCandidates(v.cands, r)
	}
	return v.cands
}

// Claim implements online.CoopView: remove the worker from the partner
// pool that holds it. An ID no partner pool holds — the platform's own,
// already claimed or assigned, or never seen — fails before any fault
// draw.
func (v *hubView) Claim(workerID int64) bool {
	h := v.hub
	if h.CoopDisabled {
		return false
	}
	for _, owner := range h.order {
		pool := h.pools[owner]
		if owner == v.self || !pool.Has(workerID) {
			continue
		}
		if h.faults != nil && !h.faults.ClaimPartner(v.self, owner, h.now) {
			// Injected transient claim error (retries exhausted) or an open
			// breaker: the matcher moves on to the next accepting candidate.
			return false
		}
		pool.Remove(workerID)
		return true
	}
	return false
}

package platform

// The geo-sharded runtime: matching state partitioned by spatial grid
// cell, one engine goroutine per shard, cross-shard cooperation through
// the internal/shard claim protocol. Each shard owns a full Engine —
// its own hub, matcher instances and per-platform results — holding
// exactly the workers whose cells it owns; a request is matched by the
// shard owning its cell, scanning local waiting lists plus (for
// boundary requests) the hubs of the shards its eligibility disk
// touches, with remote claims committed through the target hub's
// per-worker atomic claim word.
//
// Determinism: the dispatcher (the stream feeder offline, the serving
// sequencer live — both through Engine.step) assigns every event a
// global sequence number; the shard.Coordinator's frontier gates order
// all cross-shard interaction by those numbers, so with a zero stall
// timeout repeated runs are bit-identical. The documented merge order is cell-major,
// ID-canonical: shard results merge in ascending shard index per
// platform, and each shard's matching is already in its own event
// order, so the merged Result is a pure function of (stream, factory,
// Config).
//
// The sharded result intentionally differs from the unsharded engine's:
// inner matching is shard-local (a platform's worker in another shard's
// cells is invisible to its own requests there — the locality
// approximation Kanoria's dynamic spatial matching results justify:
// match quality is dominated by local supply density), and cooperation
// reaches exactly the shards a request's disk touches. Shards <= 1
// never enters this file and stays bit-identical to previous releases.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
	"crossmatch/internal/index"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/shard"
	"crossmatch/internal/stats"
)

// ErrShardUnsupported is the typed error returned when a Config
// combines Shards > 1 with a feature the sharded runtime does not
// support: ServiceTicks (worker recycling re-arrivals would need
// cross-shard re-delivery), Trace (recorders are bound per matcher, and
// the shard copies would fight over rings), or windowed matchers (window
// flushes would need a cross-shard virtual-time barrier). Match it with
// errors.Is.
var ErrShardUnsupported = errors.New("unsupported with Shards > 1")

// ErrShardReach is the typed error returned when a worker's eligibility
// radius exceeds the reach the sharded engine planned its boundary
// crossings for — admitting the worker could make a request's target
// set under-approximate and silently lose cooperation candidates.
var ErrShardReach = errors.New("worker radius exceeds ShardReach")

// testShardHold, when non-nil, is called by every shard loop before
// each event with (shard, seq) — the chaos-test seam for stalling a
// shard mid-run. Never set outside tests.
var testShardHold func(shardIdx int, seq int64)

// shardSeed derives shard i's Config.Seed: shard 0 keeps the run seed
// (so a structurally-sharded n=1 run draws identically to the unsharded
// engine) and later shards decorrelate through a Weyl-sequence step.
func shardSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	const weyl uint64 = 0x9E3779B97F4A7C15
	return seed ^ int64(weyl*uint64(i))
}

func shardUnsupported(cfg Config) error {
	switch {
	case cfg.ServiceTicks > 0:
		return fmt.Errorf("platform: ServiceTicks %w", ErrShardUnsupported)
	case cfg.Trace != nil:
		return fmt.Errorf("platform: Trace %w", ErrShardUnsupported)
	}
	return nil
}

// shardCounters is one shard's observability slice, written by its loop
// and read by metrics snapshots.
type shardCounters struct {
	applied   atomic.Int64
	boundary  atomic.Int64
	borrows   atomic.Int64
	conflicts atomic.Int64
	degraded  atomic.Int64
}

// shardItem is one dispatched event in a shard queue.
type shardItem struct {
	seq      int64
	ev       core.Event
	targets  []int
	boundary bool
	// reply, when non-nil, receives the decision synchronously (a
	// request the caller waits on); everything else flows
	// fire-and-forget and surfaces errors on the next step.
	reply chan shardReply
}

type shardReply struct {
	d   RequestDecision
	err error
}

// shardedEngine is the geo-sharded runtime behind an Engine façade: the
// partitioner and coordinator, one unsharded Engine per shard (its own
// hub, matchers and results) driven by that shard's loop from its
// queue, and the per-shard boundary context the cooperation views read.
// The façade validates and sequences events; dispatch deals them to the
// queues, and each loop gates an event on the coordinator's frontiers
// and then applies it through the same Engine.apply the unsharded
// runtime uses.
type shardedEngine struct {
	cfg     Config
	part    *shard.Partitioner
	co      *shard.Coordinator
	reach   float64
	pids    []core.PlatformID
	engines []*Engine
	queues  []*shardQueue
	// cur[s].targets is the granted target set of the boundary event
	// shard s is currently processing (nil otherwise); only shard s's
	// goroutine touches its entry while the matcher runs.
	cur   []struct{ targets []int }
	stats []shardCounters

	wg      sync.WaitGroup
	reply   chan shardReply
	nextSeq int64
	// tscratch is the dispatcher's target-classification scratch; a
	// boundary item gets an exact-size copy.
	tscratch []int

	errMu    sync.Mutex
	firstErr error
	errSeq   int64
}

// fail records the error of the earliest-sequence failing event and
// closes the coordinator so every other shard drains out.
func (se *shardedEngine) fail(seq int64, err error) {
	se.errMu.Lock()
	if se.firstErr == nil || seq < se.errSeq {
		se.firstErr, se.errSeq = err, seq
	}
	se.errMu.Unlock()
	se.co.Close()
}

func (se *shardedEngine) loadErr() error {
	se.errMu.Lock()
	defer se.errMu.Unlock()
	return se.firstErr
}

// newShardedEngine builds the shard states and starts one loop per
// shard; finish stops them. reach is the eligibility radius boundary
// crossings are planned for: Config.ShardReach for an incremental
// engine, the stream's max worker radius when a stream run derives it.
func newShardedEngine(pids []core.PlatformID, factory MatcherFactory, cfg Config, reach float64) (*shardedEngine, error) {
	if err := shardUnsupported(cfg); err != nil {
		return nil, err
	}
	n := cfg.Shards
	se := &shardedEngine{
		cfg:   cfg,
		part:  shard.NewPartitioner(n, index.DefaultCell),
		reach: reach,
		pids:  append([]core.PlatformID(nil), pids...),
		cur:   make([]struct{ targets []int }, n),
		stats: make([]shardCounters, n),
		reply: make(chan shardReply, 1),
	}
	se.co = shard.New(n, shard.Options{
		StallTimeout: cfg.ShardStallTimeout,
		Metrics:      cfg.Metrics,
	})
	for i := 0; i < n; i++ {
		scfg := cfg
		scfg.Seed = shardSeed(cfg.Seed, i)
		eng, err := newUnsharded(pids, factory, scfg, se.viewWrap(i), false)
		if err != nil {
			return nil, err
		}
		if len(eng.windowed) > 0 {
			return nil, fmt.Errorf("platform: windowed matcher %q %w", eng.windowed[0].m.Name(), ErrShardUnsupported)
		}
		se.engines = append(se.engines, eng)
		se.queues = append(se.queues, newShardQueue(se.co, i))
	}
	cfg.Metrics.Add(metrics.Runs, 1)
	for i := range se.engines {
		se.wg.Add(1)
		go func(i int) {
			defer se.wg.Done()
			se.loop(i)
		}(i)
	}
	return se, nil
}

// viewWrap splices the cross-shard cooperation view in front of shard
// i's hub views: local candidates keep flowing from the shard's own
// hub, and boundary requests additionally see (and claim from) the hubs
// of their granted target shards.
func (se *shardedEngine) viewWrap(i int) func(core.PlatformID, online.CoopView) online.CoopView {
	return func(pid core.PlatformID, base online.CoopView) online.CoopView {
		return &shardCoopView{se: se, si: i, pid: pid, base: base, remote: map[int64]int{}}
	}
}

// shardCoopView is one platform-on-one-shard's window onto the other
// platforms' workers: the local shard's hub view plus, for the boundary
// event in flight, the target shards' hubs. Like hubView it is bound to
// the goroutine driving the shard and reuses its scratch across
// requests.
type shardCoopView struct {
	se   *shardedEngine
	si   int
	pid  core.PlatformID
	base online.CoopView
	now  core.Time
	// remote maps a sighted remote worker to the shard whose hub holds
	// it, so Claim can route the commit to the right claim word.
	remote  map[int64]int
	cands   []online.Candidate
	workers []*core.Worker
}

// EligibleOuter returns the local shard's cooperative candidates,
// extended — for boundary requests — with the other platforms' workers
// waiting in the granted target shards. Remote candidates append after
// local ones in ascending shard order, each shard's in its hub
// registration order: the deterministic candidate order matcher RNG
// draws depend on. Remote hub access takes the target hub's own locks
// (the target shard is parked at its gate during a deterministic run,
// and the locks keep degraded runs valid), and bypasses the fault
// injector — injector state belongs to the target's goroutine.
func (v *shardCoopView) EligibleOuter(r *core.Request) []online.Candidate {
	v.now = r.Arrival
	if len(v.remote) > 0 {
		clear(v.remote)
	}
	local := v.base.EligibleOuter(r)
	targets := v.se.cur[v.si].targets
	if len(targets) == 0 {
		return local
	}
	v.cands = append(v.cands[:0], local...)
	for _, t := range targets {
		v.appendRemote(t, r)
	}
	return v.cands
}

func (v *shardCoopView) appendRemote(t int, r *core.Request) {
	th := v.se.engines[t].hub
	if th.CoopDisabled {
		return
	}
	v.workers = v.workers[:0]
	for _, pid := range th.order {
		if pid == v.pid {
			continue
		}
		v.workers = th.pools[pid].AppendCovering(v.workers, r)
	}
	if len(v.workers) == 0 {
		return
	}
	th.mu.Lock()
	for _, w := range v.workers {
		rec := th.workers[w.ID]
		if rec == nil {
			// Assigned between the pool scan and now (degraded mode
			// only); already out of every waiting list.
			continue
		}
		v.remote[w.ID] = t
		v.cands = append(v.cands, online.Candidate{Worker: w, History: &rec.hist})
	}
	th.mu.Unlock()
}

// Claim commits a claim for a sighted worker: remote workers commit
// against their owning shard's hub — the cross-shard borrow — and
// everything else delegates to the local hub view.
func (v *shardCoopView) Claim(workerID int64) bool {
	t, ok := v.remote[workerID]
	if !ok {
		return v.base.Claim(workerID)
	}
	cnt := &v.se.stats[v.si]
	if v.se.engines[t].hub.claim(v.pid, workerID, v.now, false) {
		cnt.borrows.Add(1)
		v.se.cfg.Metrics.Add(metrics.CrossShardBorrows, 1)
		return true
	}
	cnt.conflicts.Add(1)
	return false
}

// shardStats folds the live per-shard counters and queue depths into
// the metrics shape.
func (se *shardedEngine) shardStats() []metrics.ShardSnapshot {
	out := make([]metrics.ShardSnapshot, len(se.engines))
	for i := range out {
		c := &se.stats[i]
		out[i] = metrics.ShardSnapshot{
			Shard:          i,
			Applied:        c.applied.Load(),
			QueueDepth:     se.queues[i].depth.Load(),
			BoundaryEvents: c.boundary.Load(),
			Borrows:        c.borrows.Load(),
			ClaimConflicts: c.conflicts.Load(),
			Degraded:       c.degraded.Load(),
		}
	}
	return out
}

// merge combines the per-shard results under the documented cell-major,
// ID-canonical order: per platform, shard results fold in ascending
// shard index; every assignment re-validates through Matching.Add, so a
// worker assigned by two shards — impossible under the protocol, but
// the property the whole design rests on — fails the merge loudly
// instead of producing an invalid Result.
func (se *shardedEngine) merge() (*Result, error) {
	res := &Result{
		Platforms: make(map[core.PlatformID]*PlatformResult, len(se.pids)),
		Lent:      make(map[core.PlatformID]int, len(se.pids)),
	}
	for _, pid := range se.pids {
		agg := &PlatformResult{
			ID:       pid,
			Name:     se.engines[0].res.Platforms[pid].Name,
			Matching: core.NewMatching(),
			Latency:  stats.NewReservoir(0, se.cfg.Seed^int64(pid)),
		}
		for si, eng := range se.engines {
			pr := eng.res.Platforms[pid]
			agg.Stats.Requests += pr.Stats.Requests
			agg.Stats.Served += pr.Stats.Served
			agg.Stats.ServedInner += pr.Stats.ServedInner
			agg.Stats.ServedOuter += pr.Stats.ServedOuter
			agg.Stats.CoopAttempted += pr.Stats.CoopAttempted
			agg.Stats.Revenue += pr.Stats.Revenue
			agg.Stats.PaymentSum += pr.Stats.PaymentSum
			agg.Stats.PaymentRate += pr.Stats.PaymentRate
			agg.ResponseTotal += pr.ResponseTotal
			if pr.ResponseMax > agg.ResponseMax {
				agg.ResponseMax = pr.ResponseMax
			}
			agg.Latency.Merge(pr.Latency)
			for _, a := range pr.Matching.Assignments() {
				if err := agg.Matching.Add(a); err != nil {
					return nil, fmt.Errorf("platform %d: shard %d merge: %w", pid, si, err)
				}
			}
		}
		res.Platforms[pid] = agg
	}
	for _, eng := range se.engines {
		for pid, n := range eng.hub.Lent() {
			res.Lent[pid] += n
		}
	}
	return res, nil
}

// shardEventLoc returns the location that assigns a validated event to
// a shard — the same key the fleet router partitions by
// (route.SplitStream).
func shardEventLoc(ev core.Event) geo.Point {
	if ev.Kind == core.WorkerArrival {
		return ev.Worker.Loc
	}
	return ev.Request.Loc
}

// maxWorkerRadius scans a stream for the largest worker eligibility
// radius — what a stream run derives ShardReach from.
func maxWorkerRadius(stream *core.Stream) float64 {
	r := 0.0
	for _, w := range stream.Workers() {
		if w.Radius > r {
			r = w.Radius
		}
	}
	return r
}

// runSharded is the stream feeder of the sharded runtime: derive the
// reach from the stream, build the sharded engine and feed it without
// waiting on per-request replies — the shards fold their own decisions.
func runSharded(ctx context.Context, stream *core.Stream, factory MatcherFactory, cfg Config) (*Result, error) {
	reach := cfg.ShardReach
	maxR := maxWorkerRadius(stream)
	if reach <= 0 {
		reach = maxR
	} else if maxR > reach {
		return nil, fmt.Errorf("platform: %w: stream max %v > %v", ErrShardReach, maxR, cfg.ShardReach)
	}
	sh, err := newShardedEngine(stream.Platforms(), factory, cfg, reach)
	if err != nil {
		return nil, err
	}
	return (&Engine{sh: sh}).run(ctx, StreamSource(stream))
}

// shardQueue is one shard's FIFO dispatch queue. It owns the shard's
// coordinator frontiers: pend tracks the oldest queued-or-in-flight
// sequence number, the boundary frontier the oldest queued boundary
// event — maintained at push/complete time under the queue lock, which
// is what makes the propose phase atomic with the enqueue.
type shardQueue struct {
	co    *shard.Coordinator
	si    int
	mu    sync.Mutex
	cond  *sync.Cond
	items []shardItem
	head  int
	// bseqs are the sequence numbers of queued-or-in-flight boundary
	// items, FIFO.
	bseqs    []int64
	inflight bool
	closed   bool
	depth    atomic.Int64
}

func newShardQueue(co *shard.Coordinator, si int) *shardQueue {
	q := &shardQueue{co: co, si: si}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// shardQueueBound caps the items a shard queue holds. A dispatcher
// outrunning a shard blocks in push instead of materializing the rest of
// the stream as queued items — and a wedged shard back-pressures live
// arrivals instead of growing without bound. Blocking is deadlock-free:
// every event ordered before a queued one is itself already queued, so
// the lowest-sequence event is always runnable and every queue drains.
const shardQueueBound = 4096

func (q *shardQueue) push(it shardItem) {
	q.mu.Lock()
	// The single dispatcher and the shard's single loop are the cond's
	// only waiters, and never both at once: a queue is not empty and
	// full together.
	for len(q.items)-q.head >= shardQueueBound {
		q.cond.Wait()
	}
	wasIdle := q.head == len(q.items) && !q.inflight
	q.items = append(q.items, it)
	q.depth.Add(1)
	if wasIdle {
		q.co.SetPend(q.si, it.seq)
	}
	if it.boundary {
		q.bseqs = append(q.bseqs, it.seq)
		if len(q.bseqs) == 1 {
			q.co.SetBoundary(q.si, it.seq)
		}
	}
	q.cond.Signal()
	q.mu.Unlock()
}

// pop blocks for the next item; ok=false means the queue closed empty.
// The popped item counts as in flight: the shard's pend frontier stays
// at its sequence number until complete.
func (q *shardQueue) pop() (shardItem, bool) {
	q.mu.Lock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		q.mu.Unlock()
		return shardItem{}, false
	}
	it := q.items[q.head]
	q.items[q.head] = shardItem{}
	q.head++
	if q.head > 256 && q.head*2 >= len(q.items) {
		q.items = append(q.items[:0], q.items[q.head:]...)
		q.head = 0
	}
	q.inflight = true
	q.depth.Add(-1)
	q.cond.Signal()
	q.mu.Unlock()
	return it, true
}

// complete resolves the frontiers after an item finishes processing.
func (q *shardQueue) complete(it shardItem) {
	q.mu.Lock()
	q.inflight = false
	if it.boundary {
		q.bseqs = q.bseqs[1:]
		nb := shard.None
		if len(q.bseqs) > 0 {
			nb = q.bseqs[0]
		}
		q.co.SetBoundary(q.si, nb)
	}
	next := shard.None
	if q.head < len(q.items) {
		next = q.items[q.head].seq
	}
	q.co.SetPend(q.si, next)
	q.mu.Unlock()
}

func (q *shardQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// loop drives shard si: pop, gate on the coordinator's frontiers, apply
// through the shard's Engine, publish.
func (se *shardedEngine) loop(si int) {
	eng := se.engines[si]
	q := se.queues[si]
	cnt := &se.stats[si]
	for {
		it, ok := q.pop()
		if !ok {
			return
		}
		if hold := testShardHold; hold != nil {
			hold(si, it.seq)
		}
		gated := true
		if it.boundary {
			g := se.co.WaitClaim(si, it.seq, it.targets, it.ev.Time)
			gated = g.OK
			if gated {
				se.cur[si].targets = g.Targets
				cnt.boundary.Add(1)
				if g.Degraded {
					cnt.degraded.Add(1)
				}
			}
		} else {
			gated = se.co.WaitLocal(si, it.seq)
		}
		if !gated {
			// Coordinator closed: another shard failed. Drain without
			// processing so a blocked Process caller gets an answer.
			if it.reply != nil {
				err := se.loadErr()
				if err == nil {
					err = fmt.Errorf("platform: %w", ErrEngineClosed)
				}
				it.reply <- shardReply{err: err}
			}
			q.complete(it)
			continue
		}
		d, err := eng.apply(it.ev)
		if err != nil {
			se.fail(it.seq, err)
		}
		se.cur[si].targets = nil
		cnt.applied.Add(1)
		if it.reply != nil {
			it.reply <- shardReply{d: d, err: err}
		}
		q.complete(it)
	}
}

// dispatch sequences a validated event and queues it on the shard
// owning its cell. With reply set a request blocks for its decision,
// during which every other shard keeps consuming its queue; otherwise
// the call returns as soon as the event is queued and its error, if
// any, surfaces on a later step or at finish.
func (se *shardedEngine) dispatch(ev core.Event, reply bool) (RequestDecision, error) {
	loc := shardEventLoc(ev)
	si := se.part.ShardOf(loc)
	it := shardItem{seq: se.nextSeq, ev: ev}
	se.nextSeq++
	if ev.Kind == core.RequestArrival {
		if !se.cfg.DisableCoop {
			se.tscratch = se.part.AppendTargets(se.tscratch[:0], si, loc, se.reach)
			if len(se.tscratch) > 0 {
				it.targets = append([]int(nil), se.tscratch...)
				it.boundary = true
			}
		}
		if reply {
			it.reply = se.reply
		}
	}
	se.queues[si].push(it)
	if it.reply == nil {
		return RequestDecision{}, nil
	}
	rep := <-se.reply
	return rep.d, rep.err
}

// finish drains the queues, stops the loops and merges. Nothing is
// recycled or windowed under shards — both are rejected up front — so
// there is nothing to settle.
func (se *shardedEngine) finish() (*Result, error) {
	for _, q := range se.queues {
		q.close()
	}
	se.wg.Wait()
	se.co.Close()
	for _, eng := range se.engines {
		eng.foldPricing()
	}
	se.cfg.Metrics.RecordShards(se.shardStats())
	if err := se.loadErr(); err != nil {
		return nil, err
	}
	return se.merge()
}

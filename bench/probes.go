package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"crossmatch/internal/cells"
	"crossmatch/internal/core"
	"crossmatch/internal/index"
	"crossmatch/internal/metrics"
	"crossmatch/internal/online"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/serve"
	"crossmatch/internal/wal"
)

// Isolated layer replays: each one times calls into one layer's public
// functions from outside, fed the workload's own stream and the
// reference run's assignments, so a layer's number can be read apart
// from everything around it. They run only in the traced run.

const (
	// probeEventCap bounds the replays whose cost grows with fsyncs or
	// JSON volume (see capped); it is stated next to their numbers.
	probeEventCap = 32768
	// pricingGroupCap bounds how many candidate groups the pricing replay
	// collects, and groupWorkerCap mirrors DemCOM's cap on the group handed
	// to the Monte-Carlo estimator.
	pricingGroupCap = 2000
	groupWorkerCap  = 24
)

var sink int // defeats dead-code elimination of probe loops

// timerOverhead is what a time.Now/time.Since pair reads around an
// empty operation; per-call timings subtract it.
func timerOverhead() time.Duration {
	const n = 100000
	var total time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		total += time.Since(s)
	}
	return total / n
}

// opTimer accumulates per-call durations with the timer's own cost
// removed.
type opTimer struct {
	total time.Duration
	n     int
	over  time.Duration
}

func (t *opTimer) since(s time.Time) {
	d := time.Since(s) - t.over
	if d < 0 {
		d = 0
	}
	t.total += d
	t.n++
}

func (t *opTimer) meanNs() float64 { return ratio(float64(t.total), float64(t.n)) }

// servedBy indexes the reference run's assignments by request ID.
func servedBy(ref *platform.Result) map[int64]core.Assignment {
	served := make(map[int64]core.Assignment)
	for _, p := range ref.Platforms {
		for _, a := range p.Matching.Assignments() {
			served[a.Request.ID] = a
		}
	}
	return served
}

// replay walks the stream the way the engine consumes it: worker
// arrivals join, requests are looked up, and a request the reference
// run served removes its worker.
func replay(events []core.Event, served map[int64]core.Assignment,
	onWorker func(*core.Worker), onRequest func(*core.Request), onAssign func(core.Assignment)) {
	for _, ev := range events {
		if ev.Kind == core.WorkerArrival {
			onWorker(ev.Worker)
			continue
		}
		onRequest(ev.Request)
		if a, ok := served[ev.Request.ID]; ok {
			onAssign(a)
		}
	}
}

// probeIndex mirrors each platform's SlotGrid.
func probeIndex(stream *core.Stream, served map[int64]core.Assignment, over time.Duration, m map[string]float64) {
	grids := map[core.PlatformID]*index.SlotGrid{}
	for _, pid := range stream.Platforms() {
		grids[pid] = index.NewSlotGrid(index.DefaultCell)
	}
	query, update := opTimer{over: over}, opTimer{over: over}
	var buf []int32
	var slot int32
	cands := 0
	replay(stream.Events(), served,
		func(w *core.Worker) {
			s := time.Now()
			grids[w.Platform].Insert(index.Entry{ID: w.ID, Circle: w.Range()}, slot)
			update.since(s)
			slot++
		},
		func(r *core.Request) {
			s := time.Now()
			buf = grids[r.Platform].AppendSlots(buf[:0], r.Loc)
			query.since(s)
			cands += len(buf)
		},
		func(a core.Assignment) {
			s := time.Now()
			grids[a.Worker.Platform].Remove(a.Worker.ID)
			update.since(s)
		})
	m["index.query_ns"] = query.meanNs()
	m["index.update_ns"] = update.meanNs()
	m["index.candidates_per_query"] = ratio(float64(cands), float64(query.n))
}

// probePool mirrors each platform's waiting list.
func probePool(stream *core.Stream, served map[int64]core.Assignment, over time.Duration, m map[string]float64) {
	pools := map[core.PlatformID]*online.Pool{}
	for _, pid := range stream.Platforms() {
		pools[pid] = online.NewPool(nil)
	}
	covering := opTimer{over: over}
	var buf []*core.Worker
	live := 0
	replay(stream.Events(), served,
		func(w *core.Worker) { pools[w.Platform].Add(w) },
		func(r *core.Request) {
			p := pools[r.Platform]
			live += p.Len()
			s := time.Now()
			buf = p.AppendCovering(buf[:0], r)
			covering.since(s)
		},
		func(a core.Assignment) { pools[a.Worker.Platform].Remove(a.Worker.ID) })
	m["online.covering_ns"] = covering.meanNs()
	m["online.pool_len_mean"] = ratio(float64(live), float64(covering.n))
}

// pricingGroup is one cooperative request's candidate set.
type pricingGroup struct {
	value float64
	hists []*pricing.History
}

// probeHub drives an isolated hub with registered pools and collects
// the candidate groups the pricing replay quotes.
func probeHub(stream *core.Stream, served map[int64]core.Assignment, over time.Duration, m map[string]float64) ([]pricingGroup, error) {
	hub := platform.NewHub()
	pools := map[core.PlatformID]*online.Pool{}
	views := map[core.PlatformID]online.CoopView{}
	for _, pid := range stream.Platforms() {
		pools[pid] = online.NewPool(nil)
		if err := hub.RegisterPlatform(pid, pools[pid]); err != nil {
			return nil, err
		}
		views[pid] = hub.ViewFor(pid)
	}
	eligible, claim := opTimer{over: over}, opTimer{over: over}
	var groups []pricingGroup
	var werr error
	replay(stream.Events(), served,
		func(w *core.Worker) {
			pools[w.Platform].Add(w)
			if err := hub.WorkerArrived(w); err != nil && werr == nil {
				werr = err
			}
		},
		func(r *core.Request) {
			s := time.Now()
			cands := views[r.Platform].EligibleOuter(r)
			eligible.since(s)
			if len(cands) > 0 && len(groups) < pricingGroupCap {
				g := pricingGroup{value: r.Value, hists: make([]*pricing.History, len(cands))}
				for i, c := range cands {
					g.hists[i] = c.History
				}
				groups = append(groups, g)
			}
		},
		func(a core.Assignment) {
			if a.Outer {
				s := time.Now()
				ok := views[a.Request.Platform].Claim(a.Worker.ID)
				claim.since(s)
				if !ok && werr == nil {
					werr = fmt.Errorf("hub replay: claim of worker %d for request %d refused", a.Worker.ID, a.Request.ID)
				}
				return
			}
			pools[a.Worker.Platform].Remove(a.Worker.ID)
			hub.WorkerAssigned(a.Worker.ID)
		})
	m["platform.hub_eligible_ns"] = eligible.meanNs()
	m["platform.hub_claim_ns"] = claim.meanNs()
	return groups, werr
}

// probePricing quotes every collected candidate group both ways.
func probePricing(groups []pricingGroup, seed int64, m map[string]float64) error {
	q := pricing.NewQuoter(pricing.DefaultMonteCarlo)
	sc := pricing.NewScratch()
	rng := rand.New(rand.NewSource(seed))
	var maxRev, minPay opTimer
	for _, g := range groups {
		hists := g.hists
		if len(hists) > groupWorkerCap {
			hists = append([]*pricing.History(nil), hists...)
			sort.Slice(hists, func(i, j int) bool { return hists[i].Min() < hists[j].Min() })
			hists = hists[:groupWorkerCap]
		}
		s := time.Now()
		if _, err := q.MaxExpectedRevenue(g.value, hists, sc); err != nil {
			return err
		}
		maxRev.since(s)
		s = time.Now()
		if _, err := q.MinOuterPayment(g.value, hists, rng, sc); err != nil {
			return err
		}
		minPay.since(s)
	}
	m["pricing.max_revenue_us"] = maxRev.meanNs() / 1e3
	m["pricing.min_payment_us"] = minPay.meanNs() / 1e3
	return nil
}

// redrive is the isolated Engine.Process re-drive of an event sequence
// with every event timed.
type redrive struct {
	reqNs, workNs float64
	reqN, workN   int
}

func (d redrive) seconds() float64 { return (d.reqNs + d.workNs) / 1e9 }

func probeRedrive(stream *core.Stream, alg string, seed int64, over time.Duration, d *redrive) error {
	factory, err := factoryFor(alg, stream)
	if err != nil {
		return err
	}
	eng, err := platform.NewEngine(stream.Platforms(), factory, platform.Config{Seed: seed})
	if err != nil {
		return err
	}
	req, work := opTimer{over: over}, opTimer{over: over}
	for _, ev := range stream.Events() {
		s := time.Now()
		if _, err := eng.Process(ev); err != nil {
			return err
		}
		if ev.Kind == core.RequestArrival {
			req.since(s)
		} else {
			work.since(s)
		}
	}
	if _, err := eng.Finish(); err != nil {
		return err
	}
	d.reqNs += float64(req.total)
	d.workNs += float64(work.total)
	d.reqN += req.n
	d.workN += work.n
	return nil
}

// probeShard runs a fixed city (city100k, RamCOM) through
// platform.Engine with Shards=4 and Shards=1. With two cores, four
// shard goroutines measure the scheduler, so these are recorded for the
// ROADMAP fix-or-delete verdict and predicted to move nothing.
func probeShard(seed int64, m map[string]float64) error {
	stream, err := cityStream("city100k", 10000).generate(seed)
	if err != nil {
		return err
	}
	reach := 0.0
	for _, ev := range stream.Events() {
		if ev.Kind == core.WorkerArrival && ev.Worker.Radius > reach {
			reach = ev.Worker.Radius
		}
	}
	run := func(shards int) (secs, revenue float64, snaps []metrics.ShardSnapshot, stalls int64, err error) {
		factory, err := factoryFor(platform.AlgRamCOM, stream)
		if err != nil {
			return
		}
		mc := metrics.New()
		eng, err := platform.NewEngine(stream.Platforms(), factory,
			platform.Config{Seed: seed, Shards: shards, ShardReach: reach, Metrics: mc})
		if err != nil {
			return
		}
		t0 := time.Now()
		for _, ev := range stream.Events() {
			if _, err = eng.Process(ev); err != nil {
				return
			}
		}
		snaps = eng.ShardStats()
		res, err := eng.Finish()
		if err != nil {
			return
		}
		return time.Since(t0).Seconds(), res.TotalRevenue(), snaps, mc.Snapshot().Counters.ShardStalls, nil
	}
	t1, rev1, _, _, err := run(1)
	if err != nil {
		return fmt.Errorf("shard probe, 1 shard: %w", err)
	}
	t4, rev4, snaps, stalls, err := run(4)
	if err != nil {
		return fmt.Errorf("shard probe, 4 shards: %w", err)
	}
	var boundary, borrows int64
	for _, s := range snaps {
		boundary += s.BoundaryEvents
		borrows += s.Borrows
	}
	requests, _ := countKinds(stream.Events())
	m["shard.events_per_s"] = ratio(float64(stream.Len()), t4)
	m["shard.slowdown_ratio"] = ratio(t4, t1)
	m["shard.boundary_share"] = ratio(float64(boundary), float64(requests))
	m["shard.borrows"] = float64(borrows)
	m["shard.revenue_ratio"] = ratio(rev4, rev1)
	m["shard.stalls"] = float64(stalls)
	return nil
}

// probeCells times the rendezvous owner lookup the router and the
// sharded engine share.
func probeCells(events []core.Event, m map[string]float64) {
	names := cells.Names(2)
	t0 := time.Now()
	for _, ev := range events {
		sink += cells.OwnerIndex(cells.Of(eventLoc(ev), 0), names)
	}
	m["cells.owner_ns"] = ratio(float64(time.Since(t0)), float64(len(events)))
}

// capped bounds the replays whose cost grows with fsyncs or JSON volume.
func capped(events []core.Event) []core.Event {
	if len(events) > probeEventCap {
		return events[:probeEventCap]
	}
	return events
}

// probeWALCodec times the WAL event codec on the stream's events (capped
// at probeEventCap) and returns the encoded payloads for probeWAL.
func probeWALCodec(events []core.Event, m map[string]float64) ([][]byte, error) {
	events = capped(events)
	n := float64(len(events))
	payloads := make([][]byte, len(events))
	var buf []byte
	var err error
	t0 := time.Now()
	for i, ev := range events {
		if buf, err = wal.AppendEvent(buf[:0], ev, int64(i)); err != nil {
			return nil, err
		}
		sink += len(buf)
	}
	m["wal.encode_ns"] = float64(time.Since(t0)) / n
	for i, ev := range events {
		if payloads[i], err = wal.AppendEvent(nil, ev, int64(i)); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	for _, p := range payloads {
		if _, _, err := wal.DecodeEvent(p); err != nil {
			return nil, err
		}
	}
	m["wal.decode_ns"] = float64(time.Since(t0)) / n
	return payloads, nil
}

// probeJSON times the serving JSON codec on the same events. Decisions
// are built from the reference run, so the encoder sees the lines the
// server writes.
func probeJSON(events []core.Event, served map[int64]core.Assignment, m map[string]float64) error {
	events = capped(events)
	n := float64(len(events))
	lines := make([][]byte, len(events))
	var err error
	for i, ev := range events {
		if lines[i], err = json.Marshal(serve.EventToWire(ev)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	for _, line := range lines {
		var we serve.WireEvent
		if err := json.Unmarshal(line, &we); err != nil {
			return err
		}
	}
	m["serve.json_decode_ns"] = float64(time.Since(t0)) / n

	decisions := make([]serve.WireDecision, len(events))
	for i, ev := range events {
		d := serve.WireDecision{Status: serve.StatusOK, Kind: ev.Kind.String(), ID: eventID(ev), VTime: int64(ev.Time)}
		if ev.Kind == core.RequestArrival {
			d.Reason = string(online.ReasonNoWorkers)
			if a, ok := served[d.ID]; ok {
				d.Served, d.WorkerID, d.WorkerPlatform = true, a.Worker.ID, int32(a.Worker.Platform)
				d.Outer, d.Payment, d.Revenue = a.Outer, a.Payment, a.Revenue()
				d.Reason = string(online.ReasonInner)
				if a.Outer {
					d.Reason = string(online.ReasonOuter)
				}
			}
		}
		decisions[i] = d
	}
	t0 = time.Now()
	for i := range decisions {
		out, err := json.Marshal(&decisions[i])
		if err != nil {
			return err
		}
		sink += len(out)
	}
	m["serve.json_encode_ns"] = float64(time.Since(t0)) / n
	return nil
}

// probeWAL appends the payloads to an isolated log at the serving
// fsync batch, then reads them back.
func probeWAL(payloads [][]byte, dir string, m map[string]float64) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{FsyncBatch: fsyncBatch})
	if err != nil {
		return err
	}
	n := float64(len(payloads))
	t0 := time.Now()
	for _, p := range payloads {
		if err := l.Append(p); err != nil {
			l.Close()
			return err
		}
	}
	if err := l.Sync(); err != nil {
		l.Close()
		return err
	}
	appendS := time.Since(t0)
	st := l.Stats()
	if err := l.Close(); err != nil {
		return err
	}
	m["wal.append_us"] = float64(appendS) / 1e3 / n
	m["wal.fsync_ms"] = ratio(float64(st.FsyncNs)/1e6, float64(st.Fsyncs))
	m["wal.bytes_per_event"] = ratio(float64(st.Bytes), n)

	l, err = wal.Open(dir, wal.Options{FsyncBatch: fsyncBatch})
	if err != nil {
		return err
	}
	defer l.Close()
	read := 0
	t0 = time.Now()
	err = l.Range(func(_ int64, p []byte) error {
		if _, _, err := wal.DecodeEvent(p); err != nil {
			return err
		}
		read++
		return nil
	})
	if err != nil {
		return err
	}
	if read != len(payloads) {
		return fmt.Errorf("wal probe: read back %d of %d records", read, len(payloads))
	}
	m["wal.range_events_per_s"] = ratio(float64(read), time.Since(t0).Seconds())
	return nil
}

// probeSet names the isolated replays a workload runs beyond those of
// the engine's own layers (index, pool, hub, pricing), which every
// workload exercises. A layer a workload does not run is not replayed
// there, and its metrics read 0.
type probeSet struct {
	cells bool // the router's ownership lookup
	json  bool // the serving wire codec
	wal   bool // the log: codec, append+fsync, read-back
	shard bool // the in-process sharded engine, on a fixed city of its own
}

// streamProbes runs the isolated replays that need only a stream and
// its reference run.
func streamProbes(stream *core.Stream, ref *platform.Result, seed int64, outDir string, which probeSet, m map[string]float64) error {
	over := timerOverhead()
	served := servedBy(ref)
	probeIndex(stream, served, over, m)
	probePool(stream, served, over, m)
	groups, err := probeHub(stream, served, over, m)
	if err != nil {
		return err
	}
	if err := probePricing(groups, seed, m); err != nil {
		return err
	}
	if which.cells {
		probeCells(stream.Events(), m)
	}
	if which.json {
		if err := probeJSON(stream.Events(), served, m); err != nil {
			return err
		}
	}
	if which.wal {
		payloads, err := probeWALCodec(stream.Events(), m)
		if err != nil {
			return err
		}
		if err := probeWAL(payloads, filepath.Join(outDir, fmt.Sprintf("walprobe-%d", os.Getpid())), m); err != nil {
			return err
		}
	}
	if which.shard {
		return probeShard(seed, m)
	}
	return nil
}

// fsTypeOf names the filesystem under dir, for the WAL numbers: fsync
// cost is a property of the disk, not of the program.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown fs"
	}
	known := map[int64]string{0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x6969: "nfs"}
	if name, ok := known[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("fs type 0x%x", st.Type)
}

package serve

import (
	"fmt"
	"math"
	"slices"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/wal"
)

// RecoveryInfo describes what a WAL-enabled server rebuilt on startup.
type RecoveryInfo struct {
	// Recovered is true when the log held events that were re-driven.
	Recovered bool `json:"recovered"`
	// Events is the number of log records re-driven through the engine.
	Events int64 `json:"events"`
	// SnapshotApplied is the log position of the checkpoint whose digest
	// was verified during the re-drive; 0 when no snapshot existed.
	SnapshotApplied int64 `json:"snapshot_applied,omitempty"`
	// VLast is the restored virtual-clock high-water mark (ms).
	VLast int64 `json:"vlast"`
	// DurationMs is the wall-clock cost of the re-drive.
	DurationMs float64 `json:"duration_ms"`
}

// WALStatus is the durability section of the /v1/metrics payload. The
// live append/fsync counters stream through the engine collector
// (wal_appends, wal_fsyncs, wal_fsync_ns, ...); this section carries
// the configuration and the startup recovery summary.
type WALStatus struct {
	Dir              string       `json:"dir"`
	FsyncBatch       int          `json:"fsync_batch"`
	SnapshotEvery    int          `json:"snapshot_every"`
	SnapshotsWritten int64        `json:"snapshots_written"`
	Recovery         RecoveryInfo `json:"recovery"`
}

// Recovery returns the startup recovery summary. The zero value means
// the server runs without a WAL or started on an empty log.
func (s *Server) Recovery() RecoveryInfo { return s.rec }

// recover opens (or creates) the write-ahead log, loads the latest
// valid snapshot manifest, and re-drives every logged event through
// the fresh engine — the deterministic reconstruction of the exact
// pre-crash state: the engine is a pure function of (seed, config,
// event sequence), and the log IS the event sequence. Every log carries
// a manifest from its first record on — an empty log gets one at
// position 0 — so its configuration fingerprint is always checked, and
// a non-empty log without one is refused. When the re-drive passes the
// snapshot's log position, the serving counters must reproduce the
// checkpoint digest bit for bit; a mismatch fails recovery loudly
// rather than serving forked state. Runs on the New goroutine before
// the sequencer starts, so no locking is needed.
func (s *Server) recover() error {
	t0 := time.Now()
	l, err := wal.Open(s.opts.WALDir, wal.Options{
		FsyncBatch: s.opts.FsyncBatch,
		Metrics:    s.met,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	snap, err := wal.LatestSnapshot(s.opts.WALDir)
	if err != nil {
		l.Close()
		return fmt.Errorf("serve: %w", err)
	}
	if snap == nil && l.Count() > 0 {
		l.Close()
		return fmt.Errorf("serve: wal recovery: %s holds %d records but no snapshot manifest, so the configuration "+
			"they were written under cannot be checked; recover it with the binary that wrote it, or start from an empty wal dir",
			s.opts.WALDir, l.Count())
	}
	if snap != nil {
		if err := s.checkSnapshotConfig(snap); err != nil {
			l.Close()
			return err
		}
	}

	var lastTime int64
	// A checkpoint at position 0 (a server closed before any traffic) is
	// trivially verified: its digest is the zero counters.
	verified := snap == nil || snap.Applied == 0
	err = l.Range(func(i int64, p []byte) error {
		if wal.IsTick(p) {
			// A logged virtual-time tick: re-advance the clock, which
			// re-flushes exactly the windows the live server flushed at this
			// time. Requests buffered after the last logged tick re-buffer —
			// the open-window re-buffer semantics documented on Close.
			t, derr := wal.DecodeTick(p)
			if derr != nil {
				return fmt.Errorf("record %d: %w", i, derr)
			}
			s.applied++
			if aerr := s.eng.AdvanceTime(t); aerr != nil {
				s.ctr.engineErrors.Add(1)
			}
			if int64(t) > lastTime {
				lastTime = int64(t)
			}
			if snap != nil && s.applied == snap.Applied {
				if derr := s.checkSnapshotDigest(snap); derr != nil {
					return derr
				}
				verified = true
			}
			return nil
		}
		ev, seq, derr := wal.DecodeEvent(p)
		if derr != nil {
			return fmt.Errorf("record %d: %w", i, derr)
		}
		if s.replayIdx != nil {
			// Replay-mode records were logged in recorded order; anything
			// else means the log belongs to a different stream.
			if seq != int64(s.cursor) || seq >= int64(len(s.replayEvs)) {
				return fmt.Errorf("record %d: replay seq %d does not continue cursor %d", i, seq, s.cursor)
			}
			s.delivered[seq].Store(true)
			s.cursor++
		} else {
			s.bumpLiveIDs(ev)
		}
		s.applied++
		s.ctr.accepted.Add(1)
		if ev.Kind == core.RequestArrival {
			s.ctr.requestsSeen.Add(1)
		} else {
			s.ctr.workersSeen.Add(1)
		}
		// An event the engine rejected live is rejected identically on
		// re-drive (the engine is deterministic): book it and keep going,
		// exactly as the sequencer did.
		_, _ = s.apply(ev)
		if int64(ev.Time) > lastTime {
			lastTime = int64(ev.Time)
		}
		if snap != nil && s.applied == snap.Applied {
			if err := s.checkSnapshotDigest(snap); err != nil {
				return err
			}
			verified = true
		}
		return nil
	})
	if err != nil {
		l.Close()
		return fmt.Errorf("serve: wal recovery: %w", err)
	}
	if snap != nil && !verified {
		l.Close()
		return fmt.Errorf("serve: wal recovery: log holds %d records but the snapshot covers %d — records are missing", s.applied, snap.Applied)
	}

	// Resume the virtual clock past everything already stamped: the
	// snapshot's high-water mark and the last logged arrival. Without
	// this, time.Since(started) would restart the clock at zero and the
	// first live event would trip the engine's ErrTimeRegression against
	// recovered state.
	base := lastTime
	if snap != nil && snap.VLast > base {
		base = snap.VLast
	}
	s.vbase, s.vlast = base, base

	s.wal = l
	if s.applied > 0 {
		s.met.Add(metrics.WALRecoveries, 1)
		s.met.Add(metrics.WALRecoveredEvents, s.applied)
	}
	if snap == nil {
		// A fresh log: pin the configuration before the first record.
		if err := s.writeSnapshot(); err != nil {
			l.Close()
			return fmt.Errorf("serve: wal: %w", err)
		}
	}
	s.rec = RecoveryInfo{
		Recovered:  s.applied > 0,
		Events:     s.applied,
		VLast:      base,
		DurationMs: float64(time.Since(t0)) / float64(time.Millisecond),
	}
	if snap != nil {
		s.rec.SnapshotApplied = snap.Applied
	}
	return nil
}

// checkSnapshotConfig refuses a log written under a different engine
// configuration: it would re-drive cleanly but produce silently
// different matching state.
func (s *Server) checkSnapshotConfig(snap *wal.Snapshot) error {
	switch {
	case snap.Algorithm != s.opts.Algorithm:
		return fmt.Errorf("serve: wal recovery: snapshot algorithm %q, server runs %q", snap.Algorithm, s.opts.Algorithm)
	case snap.Seed != s.opts.Seed:
		return fmt.Errorf("serve: wal recovery: snapshot seed %d, server seed %d", snap.Seed, s.opts.Seed)
	case snap.ServiceTicks != int64(s.opts.ServiceTicks):
		return fmt.Errorf("serve: wal recovery: snapshot service-ticks %d, server %d", snap.ServiceTicks, s.opts.ServiceTicks)
	case snap.DisableCoop != s.opts.DisableCoop:
		return fmt.Errorf("serve: wal recovery: snapshot coop-disabled %v, server %v", snap.DisableCoop, s.opts.DisableCoop)
	case snap.ReplayEvents != int64(len(s.replayEvs)):
		return fmt.Errorf("serve: wal recovery: snapshot recorded stream of %d events, server replays %d", snap.ReplayEvents, len(s.replayEvs))
	case snap.Window != int64(s.opts.Window):
		return fmt.Errorf("serve: wal recovery: snapshot window %d, server %d", snap.Window, s.opts.Window)
	case snap.BatchDeadline != int64(s.opts.BatchDeadline):
		return fmt.Errorf("serve: wal recovery: snapshot batch-deadline %d, server %d", snap.BatchDeadline, s.opts.BatchDeadline)
	case snap.Shards > 1:
		return fmt.Errorf("serve: wal recovery: log written on %d shards by the in-process sharded engine removed in PR 27; "+
			"recover it with the binary that wrote it, or start from an empty wal dir", snap.Shards)
	case snap.PricingRev != pricing.SamplerRev && platform.SamplesMinPayment(s.opts.Algorithm):
		return fmt.Errorf("serve: wal recovery: log written under Monte-Carlo sampler revision %d, this binary runs revision %d: "+
			"%s draws its payments from that sampler, so the log would re-drive to different decisions; "+
			"recover it with the binary that wrote it, or start from an empty wal dir",
			snap.PricingRev, pricing.SamplerRev, s.opts.Algorithm)
	case !slices.Equal(snap.Platforms, s.pids):
		return fmt.Errorf("serve: wal recovery: snapshot platforms %v, server %v", snap.Platforms, s.pids)
	case snap.MaxValueBits != math.Float64bits(s.maxValue):
		return fmt.Errorf("serve: wal recovery: snapshot max value %v, server %v", math.Float64frombits(snap.MaxValueBits), s.maxValue)
	case snap.Faults != faultPrint(s.opts.Faults):
		return fmt.Errorf("serve: wal recovery: snapshot fault plan %q, server %q", snap.Faults, faultPrint(s.opts.Faults))
	}
	return nil
}

// faultPrint renders every field of a fault plan for the configuration
// fingerprint; empty without a plan.
func faultPrint(p *fault.Plan) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("%+v", *p)
}

// checkSnapshotDigest verifies that re-driving the log prefix
// reproduced the checkpoint's decision counters bit for bit.
func (s *Server) checkSnapshotDigest(snap *wal.Snapshot) error {
	s.ctr.revenueMu.Lock()
	rev := s.ctr.revenue
	s.ctr.revenueMu.Unlock()
	served, matched := s.ctr.served.Load(), s.ctr.matched.Load()
	if served != snap.Served || matched != snap.Matched || math.Float64bits(rev) != snap.RevenueBits {
		return fmt.Errorf("snapshot digest mismatch at record %d: re-drive served=%d matched=%d revenue=%x, checkpoint served=%d matched=%d revenue=%x",
			snap.Applied, served, matched, math.Float64bits(rev), snap.Served, snap.Matched, snap.RevenueBits)
	}
	return nil
}

// bumpLiveIDs keeps the live-mode ID allocators above every recovered
// server-assigned ID so post-restart traffic can never collide.
func (s *Server) bumpLiveIDs(ev core.Event) {
	switch ev.Kind {
	case core.WorkerArrival:
		if id := ev.Worker.ID; id >= s.nextWorkerID.Load() {
			s.nextWorkerID.Store(id)
		}
	case core.RequestArrival:
		if id := ev.Request.ID; id >= s.nextReqID.Load() {
			s.nextReqID.Store(id)
		}
	}
}

// logEvent appends one event to the WAL — strictly before the engine
// sees it (write-ahead): an event that is not durable by the batch
// policy must not mutate matching state, or a crash would recover to a
// state the log cannot reproduce. The encode buffer is reused, so the
// zero-durability path aside, the sequencer stays allocation-free in
// steady state. Sequencer goroutine only.
func (s *Server) logEvent(ev core.Event, seq int) error {
	buf, err := wal.AppendEvent(s.walBuf[:0], ev, int64(seq))
	if err != nil {
		return err
	}
	s.walBuf = buf
	if err := s.wal.Append(buf); err != nil {
		return err
	}
	s.applied++
	return nil
}

// logTick appends a virtual-time tick record — write-ahead of the
// window flush it is about to trigger, same contract as logEvent.
// Sequencer goroutine only.
func (s *Server) logTick(t core.Time) error {
	s.walBuf = wal.AppendTick(s.walBuf[:0], t)
	if err := s.wal.Append(s.walBuf); err != nil {
		return err
	}
	s.applied++
	return nil
}

// maybeSnapshot writes a checkpoint manifest every SnapshotEvery
// applied events. Sequencer goroutine only.
func (s *Server) maybeSnapshot() {
	if s.wal == nil || s.opts.SnapshotEvery <= 0 || s.applied%int64(s.opts.SnapshotEvery) != 0 {
		return
	}
	if err := s.writeSnapshot(); err != nil {
		s.ctr.walErrors.Add(1)
	}
}

// writeSnapshot fsyncs the log (a checkpoint must never cover records
// that are not yet durable) and persists the manifest.
func (s *Server) writeSnapshot() error {
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.ctr.revenueMu.Lock()
	rev := s.ctr.revenue
	s.ctr.revenueMu.Unlock()
	sn := &wal.Snapshot{
		Version:       1,
		Applied:       s.applied,
		VLast:         s.vlast,
		Algorithm:     s.opts.Algorithm,
		Seed:          s.opts.Seed,
		ServiceTicks:  int64(s.opts.ServiceTicks),
		DisableCoop:   s.opts.DisableCoop,
		ReplayEvents:  int64(len(s.replayEvs)),
		Platforms:     s.pids,
		MaxValueBits:  math.Float64bits(s.maxValue),
		Faults:        faultPrint(s.opts.Faults),
		Window:        int64(s.opts.Window),
		BatchDeadline: int64(s.opts.BatchDeadline),
		PricingRev:    pricing.SamplerRev,
		Served:        s.ctr.served.Load(),
		Matched:       s.ctr.matched.Load(),
		RevenueBits:   math.Float64bits(rev),
	}
	if err := wal.WriteSnapshot(s.wal.Dir(), sn); err != nil {
		return err
	}
	s.met.Add(metrics.WALSnapshots, 1)
	s.snapsWritten.Add(1)
	return nil
}

// crashForTest simulates a SIGKILL for recovery tests: the sequencer
// is stopped and the log's file handles are dropped without the final
// snapshot, the buffered-tail flush, or the engine finish that a clean
// Close performs. Appends since the last fsync are lost, exactly as a
// hard kill would lose them.
func (s *Server) crashForTest() {
	s.BeginDrain()
	<-s.seqDone
	s.closeOnce.Do(func() {
		if s.wal != nil {
			_ = s.wal.Abandon()
		}
		s.closeErr = fmt.Errorf("serve: crashed (test hook)")
	})
}

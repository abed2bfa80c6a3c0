package serve

import (
	"fmt"
	"math"
	"time"

	"crossmatch/internal/core"
	"crossmatch/internal/metrics"
	"crossmatch/internal/platform"
	"crossmatch/internal/pricing"
	"crossmatch/internal/wal"
)

// checkpointEvery is how many event and tick records the sequencer
// appends between two checkpoint records. A checkpoint is a few hundred
// bytes of JSON, so this costs about 1.5 bytes a record.
const checkpointEvery = 256

// RecoveryInfo describes what a WAL-enabled server rebuilt on startup.
type RecoveryInfo struct {
	// Recovered is true when the log held events that were re-driven.
	Recovered bool `json:"recovered"`
	// Events is the number of event and tick records re-driven through
	// the engine; checkpoint records are not counted.
	Events int64 `json:"events"`
	// SnapshotApplied is the position (in event and tick records) of the
	// last checkpoint verified during the re-drive.
	SnapshotApplied int64 `json:"snapshot_applied,omitempty"`
	// VLast is the restored virtual-clock high-water mark (ms).
	VLast int64 `json:"vlast"`
	// DurationMs is the wall-clock cost of the re-drive.
	DurationMs float64 `json:"duration_ms"`
}

// WALStatus is the durability section of the /v1/metrics payload: the
// configuration and the startup recovery summary. The append/fsync
// counters are the log's own Stats, which foldWAL adds to the engine
// section as wal_appends, wal_fsyncs, wal_fsync_ns, wal_snapshots, ...
type WALStatus struct {
	Dir        string       `json:"dir"`
	FsyncBatch int          `json:"fsync_batch"`
	Recovery   RecoveryInfo `json:"recovery"`
}

// Recovery returns the startup recovery summary. The zero value means
// the server runs without a WAL or started on an empty log.
func (s *Server) Recovery() RecoveryInfo { return s.rec }

// recover opens (or creates) the write-ahead log and re-drives every
// logged event and tick through the fresh engine — the deterministic
// reconstruction of the exact pre-crash state: the engine is a pure
// function of (seed, config, event sequence), and the log IS the event
// sequence. Record 0 of every log is a checkpoint — an empty log gets
// one before anything else — so the configuration is checked before
// the first event is re-driven, and a non-empty log without one is
// refused. Every checkpoint the re-drive passes must match the
// configuration, cover exactly the records re-driven so far, and
// reproduce its counter digest bit for bit; a mismatch fails recovery
// loudly rather than serving forked state. Runs on the New goroutine
// before the sequencer starts, so no locking is needed.
func (s *Server) recover() error {
	t0 := time.Now()
	l, err := wal.Open(s.opts.WALDir, wal.Options{FsyncBatch: s.opts.FsyncBatch})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	err = l.Range(func(i int64, p []byte) error {
		switch {
		case i == 0 && !wal.IsCheckpoint(p):
			return fmt.Errorf("%s holds %d records but no checkpoint at record 0: written by a binary that kept its "+
				"checkpoints in snap-*.snap manifests; recover it with the binary that wrote it, or start from an empty wal dir",
				s.opts.WALDir, l.Count())
		case wal.IsCheckpoint(p):
			c, derr := wal.DecodeCheckpoint(p)
			if derr == nil {
				derr = s.checkCheckpoint(&c)
			}
			if derr != nil {
				return fmt.Errorf("record %d: %w", i, derr)
			}
			s.checkpointed = s.applied
		case wal.IsTick(p):
			// A logged virtual-time tick: re-advance the clock, which
			// re-flushes exactly the windows the live server flushed at this
			// time. Requests buffered after the last logged tick re-buffer —
			// the open-window re-buffer semantics documented on Close.
			t, derr := wal.DecodeTick(p)
			if derr != nil {
				return fmt.Errorf("record %d: %w", i, derr)
			}
			s.redoTick(t)
		default:
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
			if ev.Kind == core.RequestArrival {
				s.ctr.requestsSeen.Add(1)
			} else {
				s.ctr.workersSeen.Add(1)
			}
			// An event the engine rejected live is rejected identically on
			// re-drive (the engine is deterministic): redoEvent books it as
			// the sequencer did, and the re-drive goes on.
			_ = s.redoEvent(ev)
		}
		return nil
	})
	if err != nil {
		l.Close()
		return fmt.Errorf("serve: wal recovery: %w", err)
	}

	// Resume the virtual clock from the high-water mark the re-drive
	// raised to the last logged event or tick. A stamp whose append
	// failed never reached the engine, so nothing the recovered state
	// holds is later than this. Without it, time.Since(started) would
	// restart the clock at zero and the first live event would trip the
	// engine's ErrTimeRegression against recovered state.
	s.vbase = s.vlast

	s.wal = l
	if l.Count() == 0 {
		// A fresh log: pin the configuration at record 0.
		if err := s.checkpoint(); err != nil {
			l.Close()
			return fmt.Errorf("serve: wal: %w", err)
		}
	}
	s.rec = RecoveryInfo{
		Recovered:       s.applied > 0,
		Events:          s.applied,
		SnapshotApplied: s.checkpointed,
		VLast:           s.vlast,
		DurationMs:      float64(time.Since(t0)) / float64(time.Millisecond),
	}
	return nil
}

// fingerprint maps the engine spec, with the recorded stream's length
// (0 live), to the configuration every checkpoint of the log pins.
func fingerprint(sp platform.Spec, replayEvents int) wal.Fingerprint {
	fp := wal.Fingerprint{Algorithm: sp.Algorithm, Seed: sp.Seed, ServiceTicks: int64(sp.ServiceTicks),
		DisableCoop: sp.DisableCoop, ReplayEvents: int64(replayEvents), Platforms: sp.Platforms,
		MaxValueBits: math.Float64bits(sp.MaxValue), Window: int64(sp.Window),
		BatchDeadline: int64(sp.BatchDeadline), PricingRev: pricing.SamplerRev}
	if sp.Faults != nil {
		fp.Faults = sp.Faults.String()
	}
	return fp
}

// checkCheckpoint refuses a checkpoint written under a different engine
// configuration — the log would re-drive cleanly but produce silently
// different matching state — or one the re-drive so far does not
// reproduce.
func (s *Server) checkCheckpoint(c *wal.Checkpoint) error {
	got := c.Fingerprint
	if !platform.SamplesMinPayment(s.spec.Algorithm) {
		got.PricingRev = s.fp.PricingRev // only a payment sampler's draws depend on its revision
	}
	switch key, was, is := got.Diff(s.fp); key {
	case "":
	case "pricing_rev":
		return fmt.Errorf("log written under Monte-Carlo sampler revision %d, this binary runs revision %d: "+
			"%s draws its payments from that sampler, so the log would re-drive to different decisions; "+
			"recover it with the binary that wrote it, or start from an empty wal dir",
			was, is, s.spec.Algorithm)
	default:
		return fmt.Errorf("checkpoint %s %#v, server %#v", key, was, is)
	}
	if c.Applied != s.applied {
		return fmt.Errorf("checkpoint covers %d event and tick records, the log holds %d before it", c.Applied, s.applied)
	}
	if served, matched, revBits := s.digest(); c.Served != served || c.Matched != matched || c.RevenueBits != revBits {
		return fmt.Errorf("checkpoint digest mismatch after %d records: re-drive served=%d matched=%d revenue=%x, checkpoint served=%d matched=%d revenue=%x",
			c.Applied, served, matched, revBits, c.Served, c.Matched, c.RevenueBits)
	}
	return nil
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
	return s.wal.Append(buf)
}

// logTick appends a virtual-time tick record — write-ahead of the
// window flush it is about to trigger, same contract as logEvent.
// Sequencer goroutine only.
func (s *Server) logTick(t core.Time) error {
	s.walBuf = wal.AppendTick(s.walBuf[:0], t)
	return s.wal.Append(s.walBuf)
}

// maybeCheckpoint appends a checkpoint once checkpointEvery event and
// tick records have followed the last one. Sequencer goroutine only.
func (s *Server) maybeCheckpoint() {
	if s.wal == nil || s.applied-s.checkpointed < checkpointEvery {
		return
	}
	if err := s.checkpoint(); err != nil {
		s.ctr.walErrors.Add(1)
	}
}

// checkpoint appends a checkpoint record: the configuration fingerprint
// and the counter digest after the s.applied event and tick records
// before it. It needs no fsync of its own, because it covers only
// records earlier in the same file: a torn tail can drop it only
// together with what it covers.
func (s *Server) checkpoint() error {
	c := wal.Checkpoint{Applied: s.applied, Fingerprint: s.fp}
	c.Served, c.Matched, c.RevenueBits = s.digest()
	buf, err := wal.AppendCheckpoint(s.walBuf[:0], &c)
	if err != nil {
		return err
	}
	s.walBuf = buf
	if err := s.wal.Append(buf); err != nil {
		return err
	}
	s.checkpointed = s.applied
	s.checkpoints++
	return nil
}

// foldWAL adds the log's Stats, the checkpoint records this process
// wrote and the startup recovery to mc as the wal_* counters; nothing
// without a WAL.
func (s *Server) foldWAL(mc *metrics.Collector) {
	if s.wal == nil {
		return
	}
	st := s.wal.Stats()
	mc.Add(metrics.WALAppends, st.Appends)
	mc.Add(metrics.WALBytes, st.Bytes)
	mc.Add(metrics.WALFsyncs, st.Fsyncs)
	mc.Add(metrics.WALFsyncNs, st.FsyncNs)
	mc.Add(metrics.WALSnapshots, s.checkpoints)
	if s.rec.Recovered {
		mc.Add(metrics.WALRecoveries, 1)
		mc.Add(metrics.WALRecoveredEvents, s.rec.Events)
	}
}

// digest returns the decision counters a checkpoint pins: the engine's
// Tally, revenue as bits. Only the engine's goroutine may call it.
func (s *Server) digest() (decided, matched int64, revenueBits uint64) {
	decided, matched, revenue := s.eng.Tally()
	return decided, matched, math.Float64bits(revenue)
}

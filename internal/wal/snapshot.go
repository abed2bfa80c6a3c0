package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Snapshot is a checkpoint manifest written next to the segments. The
// engine itself is a pure function of (seed, config, event sequence),
// so the log is the complete recoverable state; the snapshot pins the
// serving-layer half of it — the live virtual clock, the replay
// cursor, the recycled-ID base — plus a digest of the decision
// counters at a known log position. Recovery re-drives the log through
// a fresh engine and verifies the digest when it passes the
// snapshot's position: a mismatch means the log and the checkpoint
// disagree (corruption, a config drift, or a nondeterministic engine)
// and recovery fails loudly instead of serving forked state.
type Snapshot struct {
	Version int `json:"version"`
	// Applied is the number of log records covered by this checkpoint —
	// the log position the digest was taken at.
	Applied int64 `json:"applied"`
	// VLast is the live virtual clock's high-water mark (ms). A
	// restarted server resumes its clock from max(VLast, elapsed) so
	// recovered engine state never trips ErrTimeRegression.
	VLast int64 `json:"vlast"`
	// Cursor is the replay re-sequencer's recorded-order cursor (replay
	// mode only).
	Cursor int64 `json:"cursor"`
	// RecycleBase seeds the recycled-worker ID allocator (replay mode).
	RecycleBase int64 `json:"recycle_base"`

	// Config fingerprint: recovery refuses a log written under a
	// different engine configuration, which could replay cleanly but
	// produce silently different state.
	Algorithm    string `json:"algorithm"`
	Seed         int64  `json:"seed"`
	ServiceTicks int64  `json:"service_ticks"`
	DisableCoop  bool   `json:"disable_coop,omitempty"`
	ReplayEvents int64  `json:"replay_events,omitempty"` // recorded stream length; 0 in live mode
	// Window and BatchDeadline fingerprint the windowed-dispatch
	// configuration (BatchCOM): a log of buffered windows replayed under
	// a different window geometry would flush at different virtual times
	// and fork the state. Zero for the greedy algorithms, so snapshots
	// written before windowed dispatch existed keep verifying.
	Window        int64 `json:"window,omitempty"`
	BatchDeadline int64 `json:"batch_deadline,omitempty"`
	// Shards and ShardReachBits are decoded, never written: a server on
	// the in-process sharded engine (removed in PR 27) stamped them, and
	// recovery refuses such a log (Shards > 1) instead of re-driving it
	// through a different engine. Absent or zero otherwise.
	Shards         int64  `json:"shards,omitempty"`
	ShardReachBits uint64 `json:"shard_reach_bits,omitempty"`
	// PricingRev is pricing.SamplerRev of the binary that wrote the log:
	// the RNG consumption contract of the Algorithm 2 estimator. 0 (no
	// field at all) is the per-worker sampler of the binaries before the
	// group draw; a DemCOM/BatchCOM log re-driven under another revision
	// forks the state.
	PricingRev int64 `json:"pricing_rev,omitempty"`

	// Digest of the serving counters after Applied records. RevenueBits
	// is math.Float64bits of the accumulated revenue — compared bit for
	// bit, not within an epsilon.
	Served      int64  `json:"served"`
	Matched     int64  `json:"matched"`
	RevenueBits uint64 `json:"revenue_bits"`
}

const (
	snapPrefix = "snap-"
	snapSuffix = ".snap"
	// snapKeep is how many snapshot files are retained; older ones are
	// pruned after each successful write.
	snapKeep = 3
)

// SnapshotName returns the manifest file name for a log position.
func SnapshotName(applied int64) string {
	return fmt.Sprintf("%s%016d%s", snapPrefix, applied, snapSuffix)
}

// WriteSnapshot atomically persists a manifest into dir: the framed
// JSON document is written to a temp file, fsynced, renamed into
// place, and the directory is fsynced. Call Log.Sync first — a
// snapshot must never cover records that are not yet durable. Older
// manifests beyond the retention window are pruned best-effort.
func WriteSnapshot(dir string, s *Snapshot) error {
	payload, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	buf := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[headerSize:], payload)

	removeStaleTemps(dir)
	final := filepath.Join(dir, SnapshotName(s.Applied))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	pruneSnapshots(dir)
	return nil
}

// LatestSnapshot returns the newest manifest that decodes and passes
// its CRC, or nil when the directory holds none. Damaged manifests are
// skipped — an older valid checkpoint still recovers correctly, it
// just verifies an earlier log position.
func LatestSnapshot(dir string) (*Snapshot, error) {
	names, err := listSnapshots(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		s, err := readSnapshot(filepath.Join(dir, names[i]))
		if err == nil {
			return s, nil
		}
	}
	return nil, nil
}

func readSnapshot(path string) (*Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: snapshot: %w", err)
	}
	if len(buf) < headerSize {
		return nil, fmt.Errorf("wal: snapshot %s: truncated header", filepath.Base(path))
	}
	n := binary.LittleEndian.Uint32(buf[0:4])
	if int(n) != len(buf)-headerSize {
		return nil, fmt.Errorf("wal: snapshot %s: length mismatch", filepath.Base(path))
	}
	payload := buf[headerSize:]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(buf[4:8]) {
		return nil, fmt.Errorf("wal: snapshot %s: crc mismatch", filepath.Base(path))
	}
	var s Snapshot
	if err := json.Unmarshal(payload, &s); err != nil {
		return nil, fmt.Errorf("wal: snapshot %s: %w", filepath.Base(path), err)
	}
	return &s, nil
}

func listSnapshots(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// pruneSnapshots trims manifests beyond the retention window,
// best-effort. The newest manifest that actually verifies is never
// removed, even when it has aged out of the window: if every younger
// file is damaged (a torn write, a bad disk), that manifest is the only
// recoverable checkpoint and deleting it would turn a partial failure
// into an unrecoverable one.
func pruneSnapshots(dir string) {
	names, err := listSnapshots(dir)
	if err != nil || len(names) <= snapKeep {
		return
	}
	newestValid := ""
	for i := len(names) - 1; i >= 0; i-- {
		if _, err := readSnapshot(filepath.Join(dir, names[i])); err == nil {
			newestValid = names[i]
			break
		}
	}
	for _, name := range names[:len(names)-snapKeep] {
		if name == newestValid {
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}

// removeStaleTemps deletes leftover snapshot temp files — the residue
// of a crash between the temp write and the rename. They were never
// durable (the rename is the commit point) and only accumulate.
func removeStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapSuffix+".tmp") {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

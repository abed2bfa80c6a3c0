package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"

	"crossmatch/internal/core"
	"crossmatch/internal/geo"
)

// Event record layout (little-endian, fixed width — floats stored as
// IEEE-754 bit patterns so a decoded event is bit-identical to the
// encoded one, which the replay-parity guarantee depends on):
//
//	[1B kind][8B seq][8B time][8B id][4B platform][8B x][8B y]
//	worker:  [8B radius][4B histLen][histLen × 8B history]
//	request: [8B value]
//
// seq is the replay re-sequencer's recorded-order index, -1 for live
// events.

// AppendEvent encodes one event into buf (reusing its capacity) and
// returns the extended slice — the sequencer's alloc-free append path.
func AppendEvent(buf []byte, ev core.Event, seq int64) ([]byte, error) {
	buf = append(buf, byte(ev.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seq))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(ev.Time))
	switch ev.Kind {
	case core.WorkerArrival:
		w := ev.Worker
		buf = binary.LittleEndian.AppendUint64(buf, uint64(w.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(w.Platform))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.Loc.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.Loc.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(w.Radius))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(w.History)))
		for _, h := range w.History {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h))
		}
	case core.RequestArrival:
		r := ev.Request
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Platform))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Loc.X))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Loc.Y))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Value))
	default:
		return nil, fmt.Errorf("wal: unknown event kind %d", ev.Kind)
	}
	return buf, nil
}

// eventFixed is the byte count shared by both kinds before the
// kind-specific fields: kind + seq + time + id + platform + x + y.
const eventFixed = 1 + 8 + 8 + 8 + 4 + 8 + 8

// tickKind is the record-kind byte of a virtual-time tick record. It
// lives outside the core.EventKind space (WorkerArrival=1,
// RequestArrival=2) so a tick can never be confused with an arrival.
// Tick records exist for the windowed matchers: the serving sequencer
// logs one before advancing the engine's clock past a window's due
// time, so recovery replays window flushes at exactly the recorded
// virtual times and the engine state (and checkpoint digest) reproduces.
const tickKind byte = 0xFF

// AppendTick encodes a virtual-time tick record into buf:
//
//	[1B 0xFF][8B time]
func AppendTick(buf []byte, t core.Time) []byte {
	buf = append(buf, tickKind)
	return binary.LittleEndian.AppendUint64(buf, uint64(t))
}

// IsTick reports whether the record payload is a tick record.
func IsTick(p []byte) bool { return len(p) > 0 && p[0] == tickKind }

// DecodeTick decodes a tick record's virtual time.
func DecodeTick(p []byte) (core.Time, error) {
	if len(p) != 9 || p[0] != tickKind {
		return 0, fmt.Errorf("wal: malformed tick record (%d bytes)", len(p))
	}
	return core.Time(binary.LittleEndian.Uint64(p[1:9])), nil
}

// checkpointKind is the record-kind byte of a checkpoint record, beside
// tickKind outside the core.EventKind space.
const checkpointKind byte = 0xFE

// Checkpoint is a record the serving layer writes into the log: at
// record 0 of a fresh log, after every few hundred event and tick
// records, and on shutdown. The engine is a pure function of (seed,
// config, event sequence), so the log is the complete recoverable
// state; a checkpoint pins the configuration that sequence must be
// re-driven under and a digest of the decision counters after the
// Applied event and tick records before it. It covers only records
// earlier in the same file, so it is durable exactly when they are.
// Recovery checks every checkpoint it passes: a mismatch means the log
// and the configuration or the re-drive disagree (corruption, a config
// drift, or a nondeterministic engine), and recovery fails loudly
// instead of serving forked state.
type Checkpoint struct {
	// Applied is the number of event and tick records before this one.
	Applied int64 `json:"applied"`

	Fingerprint

	// Digest of the serving counters after Applied records. RevenueBits
	// is math.Float64bits of the accumulated revenue — compared bit for
	// bit, not within an epsilon.
	Served      int64  `json:"served"`
	Matched     int64  `json:"matched"`
	RevenueBits uint64 `json:"revenue_bits"`
}

// Fingerprint is the configuration a checkpoint pins: recovery refuses
// a log written under a different engine configuration, which could
// replay cleanly but produce silently different state. Its fields are
// encoded inline in the checkpoint's JSON object, in this order.
type Fingerprint struct {
	Algorithm    string `json:"algorithm"`
	Seed         int64  `json:"seed"`
	ServiceTicks int64  `json:"service_ticks"`
	DisableCoop  bool   `json:"disable_coop,omitempty"`
	ReplayEvents int64  `json:"replay_events,omitempty"` // recorded stream length; 0 in live mode
	// Platforms is the resolved platform set, ascending; MaxValueBits is
	// math.Float64bits of the resolved a-priori max request value.
	Platforms    []core.PlatformID `json:"platforms"`
	MaxValueBits uint64            `json:"max_value_bits"`
	// Faults renders every field of the cooperation fault plan; empty
	// without one.
	Faults string `json:"faults,omitempty"`
	// Window and BatchDeadline fingerprint the windowed-dispatch
	// configuration (BatchCOM): a log of buffered windows replayed under
	// a different window geometry would flush at different virtual times
	// and fork the state.
	Window        int64 `json:"window,omitempty"`
	BatchDeadline int64 `json:"batch_deadline,omitempty"`
	// PricingRev is pricing.SamplerRev of the binary that wrote the log:
	// the RNG consumption contract of the Algorithm 2 estimator. A
	// DemCOM/BatchCOM log re-driven under another revision forks the
	// state.
	PricingRev int64 `json:"pricing_rev,omitempty"`
}

// Diff returns the JSON key of the first field in which f and g differ,
// with f's and g's values of it; key is empty when they are equal.
func (f Fingerprint) Diff(g Fingerprint) (key string, fv, gv any) {
	a, b := reflect.ValueOf(f), reflect.ValueOf(g)
	for i := 0; i < a.NumField(); i++ {
		if fv, gv = a.Field(i).Interface(), b.Field(i).Interface(); !reflect.DeepEqual(fv, gv) {
			key, _, _ = strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			return key, fv, gv
		}
	}
	return "", nil, nil
}

// AppendCheckpoint encodes a checkpoint record into buf:
//
//	[1B 0xFE][JSON]
func AppendCheckpoint(buf []byte, c *Checkpoint) ([]byte, error) {
	js, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint: %w", err)
	}
	return append(append(buf, checkpointKind), js...), nil
}

// IsCheckpoint reports whether the record payload is a checkpoint record.
func IsCheckpoint(p []byte) bool { return len(p) > 0 && p[0] == checkpointKind }

// DecodeCheckpoint decodes a checkpoint record. It accepts only the
// bytes AppendCheckpoint writes for the decoded value, so a record with
// a field this binary does not know, a duplicate field or any other
// spelling of the same JSON is refused rather than half-read.
func DecodeCheckpoint(p []byte) (Checkpoint, error) {
	var c Checkpoint
	if !IsCheckpoint(p) {
		return c, fmt.Errorf("wal: not a checkpoint record")
	}
	if err := json.Unmarshal(p[1:], &c); err != nil {
		return Checkpoint{}, fmt.Errorf("wal: checkpoint: %w", err)
	}
	if re, err := AppendCheckpoint(nil, &c); err != nil || !bytes.Equal(re, p) {
		return Checkpoint{}, fmt.Errorf("wal: checkpoint record is not in this binary's encoding: %.80q", p[1:])
	}
	return c, nil
}

// DecodeEvent decodes one record payload back into a domain event and
// its replay sequence index.
func DecodeEvent(p []byte) (core.Event, int64, error) {
	if len(p) < eventFixed {
		return core.Event{}, 0, fmt.Errorf("wal: event record of %d bytes is too short", len(p))
	}
	kind := core.EventKind(p[0])
	seq := int64(binary.LittleEndian.Uint64(p[1:9]))
	t := core.Time(binary.LittleEndian.Uint64(p[9:17]))
	id := int64(binary.LittleEndian.Uint64(p[17:25]))
	pid := core.PlatformID(binary.LittleEndian.Uint32(p[25:29]))
	loc := geo.Point{
		X: math.Float64frombits(binary.LittleEndian.Uint64(p[29:37])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(p[37:45])),
	}
	rest := p[eventFixed:]
	switch kind {
	case core.WorkerArrival:
		if len(rest) < 12 {
			return core.Event{}, 0, fmt.Errorf("wal: worker record truncated")
		}
		radius := math.Float64frombits(binary.LittleEndian.Uint64(rest[0:8]))
		n := int(binary.LittleEndian.Uint32(rest[8:12]))
		rest = rest[12:]
		if len(rest) != n*8 {
			return core.Event{}, 0, fmt.Errorf("wal: worker history: have %d bytes, want %d", len(rest), n*8)
		}
		var hist []float64
		if n > 0 {
			hist = make([]float64, n)
			for i := range hist {
				hist[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[i*8:]))
			}
		}
		w := &core.Worker{ID: id, Arrival: t, Loc: loc, Radius: radius, Platform: pid, History: hist}
		return core.Event{Time: t, Kind: kind, Worker: w}, seq, nil
	case core.RequestArrival:
		if len(rest) != 8 {
			return core.Event{}, 0, fmt.Errorf("wal: request record: have %d trailing bytes, want 8", len(rest))
		}
		value := math.Float64frombits(binary.LittleEndian.Uint64(rest[0:8]))
		r := &core.Request{ID: id, Arrival: t, Loc: loc, Value: value, Platform: pid}
		return core.Event{Time: t, Kind: kind, Request: r}, seq, nil
	default:
		return core.Event{}, 0, fmt.Errorf("wal: unknown event kind %d", kind)
	}
}

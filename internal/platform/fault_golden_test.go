package platform

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"crossmatch/internal/fault"
	"crossmatch/internal/metrics"
	"crossmatch/internal/trace"
)

// faultGoldenRow is one pinned faulted run: served and outer counts,
// the revenue bits, every fault, probe and breaker counter (in
// metrics.Counter order: latency spikes, dropped probes, claim errors,
// outage hits, probe retries, probe timeouts, breaker opened,
// half-opened, closed, short circuits) and an FNV-1a digest of the
// fault events of every span, in commit order.
type faultGoldenRow struct {
	alg      string
	plan     string
	seed     int64
	served   int
	outer    int
	revenue  uint64
	counters [10]int64
	faults   uint64
}

func (g faultGoldenRow) String() string {
	return fmt.Sprintf("{%q, %q, %d, %d, %d, %#x, %#v, %#x}",
		g.alg, g.plan, g.seed, g.served, g.outer, g.revenue, g.counters, g.faults)
}

// faultGoldenRows were captured at commit 9acffd5, where the fault plan
// still had retry, breaker and seed settings, on feedTestStream(400,
// 120, 7), traced, and hold unchanged since. BatchCOM is left out: its
// flush now probes and claims at the flush tick, not at the arrival of
// the last request it priced (TestBatchCOMOutageAtFlush).
var faultGoldenRows = []faultGoldenRow{
	{"TOTA", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 1, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"TOTA", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 2, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"TOTA", "outage=1@0-", 1, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"TOTA", "outage=1@0-", 2, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"TOTA", "outage=2@50-150", 1, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"TOTA", "outage=2@50-150", 2, 145, 0, 0x40a40281900910af, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 1, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 2, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "outage=1@0-", 1, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "outage=1@0-", 2, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "outage=2@50-150", 1, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"Greedy-RT", "outage=2@50-150", 2, 77, 0, 0x409768b9b94dc0b4, [10]int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0xcbf29ce484222325},
	{"DemCOM", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 1, 164, 19, 0x40a532dc0377bdd9, [10]int64{74, 70, 2, 0, 70, 0, 0, 0, 0, 0}, 0x1c94309db7df251c},
	{"DemCOM", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 2, 174, 30, 0x40a5e3b6f92b33cc, [10]int64{72, 70, 1, 0, 69, 0, 0, 0, 0, 0}, 0x5b76e430962d72c9},
	{"DemCOM", "outage=1@0-", 1, 157, 12, 0x40a4a7dd22ba8828, [10]int64{0, 0, 0, 90, 60, 0, 26, 25, 0, 89}, 0x707fc75132ad1703},
	{"DemCOM", "outage=1@0-", 2, 165, 20, 0x40a528e5f074bb76, [10]int64{0, 0, 0, 90, 60, 0, 26, 25, 0, 89}, 0xaa6c48b1d3a59322},
	{"DemCOM", "outage=2@50-150", 1, 168, 23, 0x40a52a3fc5cd1c48, [10]int64{0, 0, 0, 18, 12, 0, 2, 2, 1, 9}, 0xbdc06f0792d3120},
	{"DemCOM", "outage=2@50-150", 2, 168, 24, 0x40a53b503f33f268, [10]int64{0, 0, 0, 18, 12, 0, 2, 2, 1, 9}, 0x39fa40e1249e0466},
	{"RamCOM", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 1, 214, 87, 0x40a6dfd30092b150, [10]int64{118, 80, 16, 0, 93, 0, 0, 0, 0, 0}, 0x67d9d9d01cfde934},
	{"RamCOM", "drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", 2, 211, 82, 0x40a735fde72a2ca1, [10]int64{112, 88, 11, 0, 98, 0, 0, 0, 0, 0}, 0x10326fc22c105b12},
	{"RamCOM", "outage=1@0-", 1, 182, 47, 0x40a565497233f4db, [10]int64{0, 0, 0, 96, 64, 0, 28, 27, 0, 142}, 0xe8490c493ca6cfa4},
	{"RamCOM", "outage=1@0-", 2, 178, 47, 0x40a50b6af00e0126, [10]int64{0, 0, 0, 96, 64, 0, 28, 27, 0, 143}, 0x2cef713a20d2a104},
	{"RamCOM", "outage=2@50-150", 1, 214, 89, 0x40a6b21fb8fd20b0, [10]int64{0, 0, 0, 18, 12, 0, 2, 2, 1, 10}, 0xcf47929d35b2462c},
	{"RamCOM", "outage=2@50-150", 2, 213, 85, 0x40a700c36d1be4ac, [10]int64{0, 0, 0, 18, 12, 0, 2, 2, 1, 10}, 0x803ad78183d1b7f2},
}

var (
	faultGoldenAlgs  = []string{AlgTOTA, AlgGreedyRT, AlgDemCOM, AlgRamCOM}
	faultGoldenPlans = []string{"drop=0.2,latency=0.3:1ms-12ms,claimerr=0.1", "outage=1@0-", "outage=2@50-150"}
)

// TestFaultedGoldenRuns pins the bits, the resilience counters and the
// traced fault events of every greedy algorithm under three fault plans
// and two seeds.
func TestFaultedGoldenRuns(t *testing.T) {
	stream := feedTestStream(t, 400, 120, 7)
	var got []faultGoldenRow
	for _, alg := range faultGoldenAlgs {
		for _, spec := range faultGoldenPlans {
			for _, seed := range []int64{1, 2} {
				plan, err := fault.ParsePlan(spec)
				if err != nil {
					t.Fatal(err)
				}
				factory, err := FactoryConfigured(alg, AlgConfig{MaxValue: stream.MaxValue()})
				if err != nil {
					t.Fatal(err)
				}
				col, tr := metrics.New(), trace.New(trace.Options{})
				res, err := Run(stream, factory, Config{Seed: seed, Faults: plan, Metrics: col, Trace: tr})
				if err != nil {
					t.Fatal(err)
				}
				c := col.Snapshot().Counters
				row := faultGoldenRow{alg: alg, plan: spec, seed: seed,
					served: res.TotalServed(), outer: res.CooperativeServed(),
					revenue: math.Float64bits(res.TotalRevenue()),
					counters: [10]int64{c.FaultLatencySpikes, c.FaultDroppedProbes, c.FaultClaimErrors, c.FaultOutageHits,
						c.ProbeRetries, c.ProbeTimeouts, c.BreakerOpened, c.BreakerHalfOpened, c.BreakerClosed, c.BreakerShortCircuits}}
				h := fnv.New64a()
				var buf [8]byte
				for _, sp := range tr.Spans() {
					for _, f := range sp.Faults {
						h.Write([]byte(f.Kind))
						binary.LittleEndian.PutUint32(buf[:4], uint32(f.Partner))
						h.Write(buf[:4])
						binary.LittleEndian.PutUint64(buf[:], uint64(f.Latency))
						h.Write(buf[:])
					}
				}
				row.faults = h.Sum64()
				got = append(got, row)
			}
		}
	}
	if len(got) != len(faultGoldenRows) {
		t.Errorf("%d runs, %d pinned rows", len(got), len(faultGoldenRows))
	}
	for i, g := range got {
		if i >= len(faultGoldenRows) || g != faultGoldenRows[i] {
			t.Errorf("row %d:\n got %v", i, g)
		}
	}
}

// Package stats provides the measurement and reporting utilities of the
// benchmark harness: aligned-text and CSV table rendering (the paper's
// Tables V-VII), x/y series rendering (the paper's Fig. 5 sub-plots),
// duration and memory formatting, and heap-usage capture.
package stats

import (
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// MemoryMB returns the current live-heap footprint in megabytes after a
// garbage collection — the closest stdlib analogue to the paper's
// resident "memory cost" column. Forcing a GC makes successive readings
// comparable across algorithms.
func MemoryMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// FormatFloat renders a float with the given number of decimals,
// trimming to integers cleanly ("13.58", "1.752").
func FormatFloat(v float64, decimals int) string {
	return strconv.FormatFloat(v, 'f', decimals, 64)
}

// FormatCount renders an integer with thousands separators ("91,321"),
// matching the paper's table style.
func FormatCount(n int) string {
	s := strconv.Itoa(n)
	neg := false
	if len(s) > 0 && s[0] == '-' {
		neg = true
		s = s[1:]
	}
	if len(s) <= 3 {
		if neg {
			return "-" + s
		}
		return s
	}
	var out []byte
	lead := len(s) % 3
	if lead > 0 {
		out = append(out, s[:lead]...)
	}
	for i := lead; i < len(s); i += 3 {
		if len(out) > 0 {
			out = append(out, ',')
		}
		out = append(out, s[i:i+3]...)
	}
	if neg {
		return "-" + string(out)
	}
	return string(out)
}

// FormatMillis renders a duration as fractional milliseconds ("0.43").
func FormatMillis(d time.Duration) string {
	return FormatFloat(float64(d)/float64(time.Millisecond), 2)
}

// Dash is the placeholder the paper prints for metrics an algorithm does
// not have (e.g. |CoR| for TOTA).
const Dash = "-"

// Sanity guards for experiment code: panics early on impossible metric
// combinations rather than printing nonsense tables.
func MustNonNegative(name string, v float64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: %s = %v must be non-negative", name, v))
	}
}

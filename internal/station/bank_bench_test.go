package station

import (
	"math"
	"testing"
)

// BenchmarkBankNext drives a million-station population at the
// million-station engine's per-station rate (aggregate 0.02 per unit
// slot: ρ′ = 0.5 at M = 25) the way that engine does: it takes the
// arrivals due at slot times only, skipping the idle slots before the
// next arrival.  One op is one arrival.  It uses only the Bank's public
// API.
func BenchmarkBankNext(b *testing.B) {
	const n, lambda = 1_000_000, 0.02
	bank, err := NewBank(n, 73, lambda/n, nil, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	now := 0.0
	next, _ := bank.Next()
	for done := 0; done < b.N; {
		now = math.Max(now+1, math.Ceil(next))
		for next <= now {
			next, _ = bank.Next()
			done++
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/arrival")
}

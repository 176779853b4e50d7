package hist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func exact(sorted []int64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return float64(sorted[rank-1])
}

// Latencies here span 200 ns cache hits to 50 ms scans, so the error bound is
// checked on a log-uniform sample over that range.
func TestQuantileWithinOnePercentOfSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, 200000)
	var h H
	for i := range vals {
		vals[i] = int64(math.Exp(rng.Float64()*math.Log(5e7/200)) * 200)
		h.Record(vals[i])
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		want, got := exact(vals, q), h.Quantile(q)
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("q=%v: got %v want %v (rel err %.4f)", q, got, want, rel)
		}
	}
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	if mean := sum / float64(len(vals)); math.Abs(h.Mean()-mean)/mean > 1e-9 {
		t.Errorf("mean: got %v want %v", h.Mean(), mean)
	}
}

func TestSmallValuesAreExact(t *testing.T) {
	var h H
	for v := int64(0); v < 256; v++ {
		h.Record(v)
	}
	for v := 1; v <= 256; v++ {
		if got := h.Quantile(float64(v) / 256); got != float64(v-1) {
			t.Fatalf("rank %d: got %v", v, got)
		}
	}
}

func TestMergeEqualsRecordingIntoOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var a, b, all H
	for i := 0; i < 50000; i++ {
		v := rng.Int63n(1 << uint(10+rng.Intn(20)))
		all.Record(v)
		if i%2 == 0 {
			a.Record(v)
		} else {
			b.Record(v)
		}
	}
	a.Merge(&b)
	if a != all {
		t.Fatal("merged histogram differs from the one recorded directly")
	}
	if a.Count() != 50000 || a.Beyond(0.99) != 500 {
		t.Fatalf("count %d beyond %d", a.Count(), a.Beyond(0.99))
	}
}

func TestOutOfRangeValuesAreCounted(t *testing.T) {
	var h H
	h.Record(-5)
	h.Record(math.MaxInt64)
	if h.Count() != 2 || h.Quantile(0.5) != 0 || h.Quantile(1) < 1<<40 {
		t.Fatalf("count %d q50 %v q100 %v", h.Count(), h.Quantile(0.5), h.Quantile(1))
	}
}

func TestRecordAllocatesNothing(t *testing.T) {
	var h H
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { v = v*3 + 7; h.Record(v & (1<<30 - 1)) }); n != 0 {
		t.Fatalf("Record allocates %v per call", n)
	}
}

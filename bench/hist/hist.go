// Package hist is the benchmark's latency recorder: a fixed-size log-linear
// histogram whose Record allocates nothing, so the load generator's own cost
// never shows up in the program's allocation counts.
package hist

import "math/bits"

const (
	// subBits sub-buckets per power of two bound a bucket's width to 1/128 of
	// its lower edge; reporting the midpoint halves that to under 0.4 %.
	subBits  = 7
	subCount = 1 << subBits
	// Values are nanoseconds; 2^40 ns is 18 minutes, past any request here.
	maxExp   = 40 - subBits
	nBuckets = (maxExp + 2) * subCount
)

// H counts values in log-linear buckets. The zero value is empty and ready;
// an H is used by one goroutine at a time and merged afterwards.
type H struct {
	counts [nBuckets]uint32
	n      uint64
	sum    uint64
}

func bucket(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - (subBits + 1) // v>>e is in [subCount, 2*subCount)
	if e > maxExp {
		return nBuckets - 1
	}
	return (e+1)*subCount + int(v>>uint(e)) - subCount
}

// value returns the midpoint of bucket i.
func value(i int) float64 {
	if i < subCount {
		return float64(i)
	}
	e := uint(i/subCount - 1)
	lo := uint64(subCount+i%subCount) << e
	return float64(lo) + float64(uint64(1)<<e-1)/2
}

// Record adds one value; negative values count as zero.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucket(uint64(v))]++
	h.n++
	h.sum += uint64(v)
}

// Merge adds o's counts into h.
func (h *H) Merge(o *H) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset empties h.
func (h *H) Reset() { *h = H{} }

// Count returns the number of recorded values.
func (h *H) Count() uint64 { return h.n }

// Mean returns the exact mean of the recorded values, 0 when empty.
func (h *H) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the value at rank ceil(q*n) (q in (0,1]), 0 when empty.
func (h *H) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(q * float64(h.n))
	if float64(rank) < q*float64(h.n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += uint64(c)
		if seen >= rank {
			return value(i)
		}
	}
	return value(nBuckets - 1)
}

// Beyond returns how many recorded values rank above quantile q.
func (h *H) Beyond(q float64) uint64 {
	return h.n - uint64(q*float64(h.n))
}

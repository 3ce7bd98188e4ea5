package main

import (
	"bufio"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between the closest ranks: position q·(N−1) in sorted
// order, the "inclusive" definition of Python's statistics.quantiles and
// NumPy's default. xs need not be sorted; it is not modified. An empty xs
// yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// histogram is one Prometheus histogram series: cumulative buckets, sorted
// by bound, and the sum of all observations.
type histogram struct {
	buckets []bucket
	sum     float64
}

// bucket is one cumulative histogram bucket: count observations <= le.
type bucket struct {
	le    float64
	count float64
}

// histQuantile estimates the q-quantile of h the way Prometheus'
// histogram_quantile does: find the bucket holding rank q·total and
// interpolate linearly inside it (the first bucket starts at 0). Ranks that
// land in the +Inf bucket return the highest finite bound. When every
// observation lies in the first bucket, the buckets say only that all are
// below its bound, and interpolating would report the same fraction of the
// bound on every run; the exact sum still pins their mean, so h is then read
// as uniform on [0, 2·mean]. An empty histogram yields 0.
func histQuantile(h histogram, q float64) float64 {
	b := h.buckets
	if len(b) == 0 || b[len(b)-1].count == 0 {
		return 0
	}
	total := b[len(b)-1].count
	if b[0].count == total {
		return 2 * q * h.sum / total
	}
	rank := q * total
	prevLE, prevCount := 0.0, 0.0
	for _, x := range b {
		if x.count >= rank {
			if math.IsInf(x.le, 1) {
				return prevLE
			}
			if x.count == prevCount {
				return x.le
			}
			return prevLE + (x.le-prevLE)*(rank-prevCount)/(x.count-prevCount)
		}
		prevLE, prevCount = x.le, x.count
	}
	return prevLE
}

// parseHistogram extracts one histogram series from a Prometheus text
// exposition: the family's _bucket and _sum lines whose label set contains
// every label in match (written as `k="v"`).
func parseHistogram(r io.Reader, family string, match ...string) (histogram, error) {
	var h histogram
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		rest, isBucket := strings.CutPrefix(line, family+"_bucket{")
		if !isBucket {
			if rest, ok := strings.CutPrefix(line, family+"_sum{"); ok {
				labels, value, _ := strings.Cut(rest, "} ")
				if matches(labels, match) {
					v, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
					if err != nil {
						return h, err
					}
					h.sum = v
				}
			}
			continue
		}
		labels, value, ok := strings.Cut(rest, "} ")
		if !ok || !matches(labels, match) {
			continue
		}
		_, le, ok := strings.Cut(labels, `le="`)
		if !ok {
			continue
		}
		le, _, _ = strings.Cut(le, `"`)
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return h, err
		}
		count, err := strconv.ParseFloat(strings.TrimSpace(value), 64)
		if err != nil {
			return h, err
		}
		h.buckets = append(h.buckets, bucket{le: bound, count: count})
	}
	sort.Slice(h.buckets, func(i, j int) bool { return h.buckets[i].le < h.buckets[j].le })
	return h, sc.Err()
}

func matches(labels string, want []string) bool {
	for _, m := range want {
		if !strings.Contains(labels, m) {
			return false
		}
	}
	return true
}

// diffHistogram returns after − before: the histogram of the observations
// made between two scrapes.
func diffHistogram(before, after histogram) histogram {
	out := histogram{buckets: append([]bucket(nil), after.buckets...), sum: after.sum - before.sum}
	for i := range out.buckets {
		for _, b := range before.buckets {
			if b.le == out.buckets[i].le {
				out.buckets[i].count -= b.count
			}
		}
	}
	return out
}

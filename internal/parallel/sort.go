package parallel

import (
	"slices"
	"sort"
)

// sortSeqCutoff is the size below which merge sort falls back to the
// sequential stdlib sort; parallel splitting below this only adds overhead.
const sortSeqCutoff = 1 << 13

// mergeSeqCutoff is the size below which a merge runs sequentially.
const mergeSeqCutoff = 1 << 14

// SortScratchLen returns the scratch length SortScratch needs for an input
// of length n with p workers: n when the parallel merge path runs, 0 when
// the call falls back to the sequential sort and allocates nothing. Callers
// pooling sort scratch use this to borrow memory only when it will be used.
func SortScratchLen(p, n int) int {
	if ResolveProcs(p) == 1 || n < sortSeqCutoff {
		return 0
	}
	return n
}

// SortScratch sorts x with less using a parallel merge sort: the input is
// split into runs sorted independently, then merged pairwise with parallel
// merges (each merge splits at the median of the larger run via binary
// search). O(n log n) work and O(log^2 n) depth, matching the comparison
// sort bound the paper cites. The sort is not stable.
//
// scratch is the merge buffer when it is at least len(x) long (nil or a
// shorter slice allocates one) — callers that recycle sort scratch across
// runs get an allocation-free sort, mirroring RadixSortUint64Scratch.
// scratch's contents are clobbered; it must not alias x. The sequential
// fallback (see SortScratchLen) never touches it.
func SortScratch[T any](p int, x, scratch []T, less func(a, b T) bool) {
	p = ResolveProcs(p)
	n := len(x)
	if p == 1 || n < sortSeqCutoff {
		slices.SortFunc(x, func(a, b T) int {
			switch {
			case less(a, b):
				return -1
			case less(b, a):
				return 1
			default:
				return 0
			}
		})
		return
	}
	cmp := func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	}
	buf := scratch
	if len(buf) < n {
		buf = make([]T, n)
	} else {
		buf = buf[:n]
	}
	// sortWith sorts a in place, using scratch (same length) as workspace.
	// sortTo sorts the contents of a into dst, destroying a.
	// The mutual recursion alternates buffers so every level merges out of
	// one array into the other; depth limits goroutine fan-out to ~2p leaves.
	var sortWith, sortTo func(a, other []T, depth int)
	sortWith = func(a, scratch []T, depth int) {
		if len(a) < sortSeqCutoff || depth <= 0 {
			slices.SortFunc(a, cmp)
			return
		}
		mid := len(a) / 2
		done := make(chan struct{})
		go func() {
			sortTo(a[:mid], scratch[:mid], depth-1)
			close(done)
		}()
		sortTo(a[mid:], scratch[mid:], depth-1)
		<-done
		mergeInto(p, a, scratch[:mid], scratch[mid:], less, depth)
	}
	sortTo = func(a, dst []T, depth int) {
		if len(a) < sortSeqCutoff || depth <= 0 {
			copy(dst, a)
			slices.SortFunc(dst, cmp)
			return
		}
		mid := len(a) / 2
		done := make(chan struct{})
		go func() {
			sortWith(a[:mid], dst[:mid], depth-1)
			close(done)
		}()
		sortWith(a[mid:], dst[mid:], depth-1)
		<-done
		mergeInto(p, dst, a[:mid], a[mid:], less, depth)
	}
	depth := 1
	for 1<<depth < 2*p {
		depth++
	}
	sortWith(x, buf, depth)
}

// mergeInto merges sorted runs a and b into dst (len(dst) == len(a)+len(b)).
// Large merges recurse in parallel by splitting a at its midpoint and b at
// the matching insertion point.
func mergeInto[T any](p int, dst, a, b []T, less func(x, y T) bool, depth int) {
	for {
		if len(a) < len(b) {
			a, b = b, a
		}
		if len(a)+len(b) < mergeSeqCutoff || depth <= 0 || len(b) == 0 {
			mergeSeq(dst, a, b, less)
			return
		}
		ma := len(a) / 2
		// mb = first index in b with !(b[mb] < a[ma]), i.e. insertion point.
		mb := sort.Search(len(b), func(i int) bool { return !less(b[i], a[ma]) })
		done := make(chan struct{})
		go func(dst, a, b []T, depth int) {
			mergeInto(p, dst, a, b, less, depth)
			close(done)
		}(dst[:ma+mb], a[:ma], b[:mb], depth-1)
		// Tail-iterate on the right half.
		dst, a, b = dst[ma+mb:], a[ma:], b[mb:]
		depth--
		defer func(done chan struct{}) { <-done }(done)
	}
}

// mergeSeq is a textbook sequential two-way merge.
func mergeSeq[T any](dst, a, b []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			dst[k] = b[j]
			j++
		} else {
			dst[k] = a[i]
			i++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// radixBits is the digit width of the LSD radix sort.
const radixBits = 8

const radixBuckets = 1 << radixBits

// RadixSortUint64Scratch stably sorts x by its low keyBits bits using a
// parallel least-significant-digit radix sort (per-block histograms, a
// prefix sum over (digit, block), and a stable scatter). This is the
// paper's parallel integer sort [39]: O(n) work per pass and O(keyBits/8)
// passes. Callers typically pack a payload into the bits above keyBits,
// which the stable sort carries along untouched.
//
// scratch is the sort's double buffer when it is at least len(x) long (nil
// or a shorter slice allocates one) — callers that recycle sort scratch
// across runs get an allocation-free sort. scratch's contents are
// clobbered.
func RadixSortUint64Scratch(p int, x, scratch []uint64, keyBits int) {
	n := len(x)
	if n <= 1 {
		return
	}
	if keyBits <= 0 {
		return
	}
	if keyBits > 64 {
		keyBits = 64
	}
	buf := scratch
	if len(buf) < n {
		buf = make([]uint64, n)
	} else {
		buf = buf[:n]
	}
	p = ResolveProcs(p)
	if p == 1 || n < 1<<14 {
		// Sequential counting passes (still LSD, same digit order).
		radixSortSeq(x, buf, keyBits)
		return
	}
	passes := (keyBits + radixBits - 1) / radixBits
	src, dst := x, buf
	blocks, size := blockSplit(p, n)
	// hist[b*radixBuckets+d] = count of digit d in block b.
	hist := make([]int, blocks*radixBuckets)
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)
		for i := range hist {
			hist[i] = 0
		}
		ForRange(p, n, size, func(lo, hi int) {
			h := hist[(lo/size)*radixBuckets : (lo/size+1)*radixBuckets]
			for _, v := range src[lo:hi] {
				h[(v>>shift)&(radixBuckets-1)]++
			}
		})
		// Column-major exclusive scan: for stability, digit d of block b
		// scatters after digit d of blocks < b and after all digits < d.
		total := 0
		for d := 0; d < radixBuckets; d++ {
			for b := 0; b < blocks; b++ {
				c := hist[b*radixBuckets+d]
				hist[b*radixBuckets+d] = total
				total += c
			}
		}
		ForRange(p, n, size, func(lo, hi int) {
			h := hist[(lo/size)*radixBuckets : (lo/size+1)*radixBuckets]
			for _, v := range src[lo:hi] {
				d := (v >> shift) & (radixBuckets - 1)
				dst[h[d]] = v
				h[d]++
			}
		})
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
}

// radixSortSeq is the sequential LSD radix sort used for small inputs and
// the p == 1 path; buf (len >= len(x)) is the double buffer.
func radixSortSeq(x, buf []uint64, keyBits int) {
	passes := (keyBits + radixBits - 1) / radixBits
	src, dst := x, buf
	var count [radixBuckets]int
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * radixBits)
		for i := range count {
			count[i] = 0
		}
		for _, v := range src {
			count[(v>>shift)&(radixBuckets-1)]++
		}
		total := 0
		for d := 0; d < radixBuckets; d++ {
			c := count[d]
			count[d] = total
			total += c
		}
		for _, v := range src {
			d := (v >> shift) & (radixBuckets - 1)
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &x[0] {
		copy(x, src)
	}
}

// RadixSortUint32 sorts x ascending. maxVal bounds the values in x (pass 0
// if unknown); it is used only to skip high-order passes.
func RadixSortUint32(p int, x []uint32, maxVal uint32) {
	n := len(x)
	if n <= 1 {
		return
	}
	bits := 32
	if maxVal > 0 {
		bits = KeyBitsFor(uint64(maxVal))
	}
	wide := make([]uint64, n)
	For(p, n, 0, func(i int) { wide[i] = uint64(x[i]) })
	RadixSortUint64Scratch(p, wide, nil, bits)
	For(p, n, 0, func(i int) { x[i] = uint32(wide[i]) })
}

// KeyBitsFor returns the number of low bits needed to represent maxVal.
func KeyBitsFor(maxVal uint64) int {
	bits := 0
	for v := maxVal; v > 0; v >>= 1 {
		bits++
	}
	if bits == 0 {
		bits = 1
	}
	return bits
}

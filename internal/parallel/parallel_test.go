package parallel

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// procsUnderTest exercises the sequential path, a small parallel count, and
// all cores.
func procsUnderTest() []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0)}
}

func TestResolveProcs(t *testing.T) {
	if ResolveProcs(0) != runtime.GOMAXPROCS(0) {
		t.Errorf("ResolveProcs(0) = %d", ResolveProcs(0))
	}
	if ResolveProcs(-5) != runtime.GOMAXPROCS(0) {
		t.Errorf("ResolveProcs(-5) = %d", ResolveProcs(-5))
	}
	if ResolveProcs(7) != 7 {
		t.Errorf("ResolveProcs(7) = %d", ResolveProcs(7))
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, p := range procsUnderTest() {
		for _, n := range []int{0, 1, 7, 1000, 12345} {
			hits := make([]int32, n)
			For(p, n, 64, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("p=%d n=%d: index %d hit %d times", p, n, i, h)
				}
			}
		}
	}
}

func TestForRangeDisjointCover(t *testing.T) {
	for _, p := range procsUnderTest() {
		const n = 100000
		var total atomic.Int64
		ForRange(p, n, 100, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("bad range [%d,%d)", lo, hi)
			}
			total.Add(int64(hi - lo))
		})
		if total.Load() != n {
			t.Fatalf("p=%d: covered %d of %d", p, total.Load(), n)
		}
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(4, 0, 0, func(i int) { called = true })
	For(4, -3, 0, func(i int) { called = true })
	if called {
		t.Fatal("For called fn for non-positive n")
	}
}

func TestSumMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 100, 5000, 100000} {
		x := make([]int64, n)
		var want int64
		for i := range x {
			x[i] = int64(r.Intn(1000) - 500)
			want += x[i]
		}
		for _, p := range procsUnderTest() {
			if got := Sum(p, x); got != want {
				t.Fatalf("p=%d n=%d: Sum=%d want %d", p, n, got, want)
			}
		}
	}
}

func TestScanInclusive(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 2, 999, 100000} {
		x := make([]uint64, n)
		for i := range x {
			x[i] = uint64(r.Intn(100))
		}
		want := make([]uint64, n)
		var s uint64
		for i, v := range x {
			s += v
			want[i] = s
		}
		for _, p := range procsUnderTest() {
			out := make([]uint64, n)
			total := ScanInclusive(p, x, out)
			if total != s {
				t.Fatalf("p=%d n=%d: total=%d want %d", p, n, total, s)
			}
			if n > 0 && !reflect.DeepEqual(out, want) {
				t.Fatalf("p=%d n=%d: scan mismatch", p, n)
			}
		}
	}
}

func TestScanExclusive(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 2, 999, 100000} {
		x := make([]int, n)
		for i := range x {
			x[i] = r.Intn(100)
		}
		want := make([]int, n)
		s := 0
		for i, v := range x {
			want[i] = s
			s += v
		}
		for _, p := range procsUnderTest() {
			out := make([]int, n)
			total := ScanExclusive(p, x, out)
			if total != s {
				t.Fatalf("p=%d n=%d: total=%d want %d", p, n, total, s)
			}
			if n > 0 && !reflect.DeepEqual(out, want) {
				t.Fatalf("p=%d n=%d: scan mismatch", p, n)
			}
		}
	}
}

func TestScanInPlaceAliasing(t *testing.T) {
	// out == x is documented to work.
	for _, p := range procsUnderTest() {
		n := 50000
		x := make([]int64, n)
		for i := range x {
			x[i] = 1
		}
		ScanInclusive(p, x, x)
		for i, v := range x {
			if v != int64(i+1) {
				t.Fatalf("p=%d: in-place scan wrong at %d: %d", p, i, v)
			}
		}
	}
}

func TestScanExclusiveInPlace(t *testing.T) {
	for _, p := range procsUnderTest() {
		n := 50000
		x := make([]int64, n)
		for i := range x {
			x[i] = 2
		}
		ScanExclusive(p, x, x)
		for i, v := range x {
			if v != int64(2*i) {
				t.Fatalf("p=%d: in-place exclusive scan wrong at %d: %d", p, i, v)
			}
		}
	}
}

func TestFilter(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 10, 100000} {
		x := make([]int, n)
		for i := range x {
			x[i] = r.Intn(1000)
		}
		pred := func(v int) bool { return v%3 == 0 }
		var want []int
		for _, v := range x {
			if pred(v) {
				want = append(want, v)
			}
		}
		for _, p := range procsUnderTest() {
			got := FilterInto(p, x, nil, pred)
			if len(got) != len(want) {
				t.Fatalf("p=%d n=%d: len=%d want %d", p, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d: order not preserved at %d", p, n, i)
				}
			}
		}
	}
}

func TestFilterIndex(t *testing.T) {
	for _, p := range procsUnderTest() {
		got := FilterIndexInto(p, 100000, nil, func(i int) bool { return i%7 == 0 })
		for k, i := range got {
			if i != 7*k {
				t.Fatalf("p=%d: got[%d]=%d want %d", p, k, i, 7*k)
			}
		}
		if len(got) != (100000+6)/7 {
			t.Fatalf("p=%d: len=%d", p, len(got))
		}
	}
}

func TestMinIndexFunc(t *testing.T) {
	x := make([]float64, 100000)
	r := rand.New(rand.NewSource(5))
	for i := range x {
		x[i] = r.Float64()
	}
	x[77777] = -1 // unique minimum
	for _, p := range procsUnderTest() {
		i, v := MinIndexFunc(p, len(x), func(i int) float64 { return x[i] })
		if i != 77777 || v != -1 {
			t.Fatalf("p=%d: got (%d,%v)", p, i, v)
		}
	}
}

func TestMinIndexFuncTieBreak(t *testing.T) {
	// All equal values: the smallest index must win for every p.
	for _, p := range procsUnderTest() {
		i, _ := MinIndexFunc(p, 50000, func(int) float64 { return 3.5 })
		if i != 0 {
			t.Fatalf("p=%d: tie broke to %d, want 0", p, i)
		}
	}
}

func TestConcat(t *testing.T) {
	parts := [][]int{{1, 2}, nil, {3}, {}, {4, 5, 6}}
	want := []int{1, 2, 3, 4, 5, 6}
	for _, p := range procsUnderTest() {
		if got := Concat(p, parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: Concat = %v", p, got)
		}
	}
}

func TestSortRandom(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 2, 100, sortSeqCutoff + 17, 200000} {
		orig := make([]int, n)
		for i := range orig {
			orig[i] = r.Intn(n + 1)
		}
		for _, p := range procsUnderTest() {
			x := make([]int, n)
			copy(x, orig)
			SortScratch(p, x, nil, func(a, b int) bool { return a < b })
			for i := 1; i < n; i++ {
				if x[i-1] > x[i] {
					t.Fatalf("p=%d n=%d: not sorted at %d", p, n, i)
				}
			}
			// Same multiset: compare against sequentially sorted copy.
			ref := make([]int, n)
			copy(ref, orig)
			SortScratch(1, ref, nil, func(a, b int) bool { return a < b })
			if !reflect.DeepEqual(x, ref) {
				t.Fatalf("p=%d n=%d: multiset changed", p, n)
			}
		}
	}
}

func TestSortDescendingComparator(t *testing.T) {
	x := []float64{1, 5, 3, 2, 4}
	SortScratch(4, x, nil, func(a, b float64) bool { return a > b })
	want := []float64{5, 4, 3, 2, 1}
	if !reflect.DeepEqual(x, want) {
		t.Fatalf("got %v", x)
	}
}

func TestSortPropertyQuick(t *testing.T) {
	f := func(x []uint16) bool {
		y := make([]uint16, len(x))
		copy(y, x)
		SortScratch(3, y, nil, func(a, b uint16) bool { return a < b })
		for i := 1; i < len(y); i++ {
			if y[i-1] > y[i] {
				return false
			}
		}
		// multiset equality via counting
		counts := map[uint16]int{}
		for _, v := range x {
			counts[v]++
		}
		for _, v := range y {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRadixSortUint64(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 1000, 1 << 15} {
		for _, bits := range []int{1, 8, 17, 32} {
			mask := uint64(1)<<bits - 1
			orig := make([]uint64, n)
			for i := range orig {
				// Payload in high bits must ride along untouched.
				orig[i] = uint64(r.Uint32())&mask | uint64(i)<<40
			}
			for _, p := range procsUnderTest() {
				x := make([]uint64, n)
				copy(x, orig)
				RadixSortUint64Scratch(p, x, nil, bits)
				for i := 1; i < n; i++ {
					if x[i-1]&mask > x[i]&mask {
						t.Fatalf("p=%d n=%d bits=%d: not sorted at %d", p, n, bits, i)
					}
				}
				// Stability: equal keys keep original (payload) order.
				for i := 1; i < n; i++ {
					if x[i-1]&mask == x[i]&mask && x[i-1]>>40 > x[i]>>40 {
						t.Fatalf("p=%d n=%d bits=%d: instability at %d", p, n, bits, i)
					}
				}
			}
		}
	}
}

func TestRadixSortUint32(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	n := 100000
	orig := make([]uint32, n)
	for i := range orig {
		orig[i] = uint32(r.Intn(5000))
	}
	for _, p := range procsUnderTest() {
		x := make([]uint32, n)
		copy(x, orig)
		RadixSortUint32(p, x, 5000)
		for i := 1; i < n; i++ {
			if x[i-1] > x[i] {
				t.Fatalf("p=%d: not sorted at %d", p, i)
			}
		}
	}
}

func TestKeyBitsFor(t *testing.T) {
	cases := map[uint64]int{0: 1, 1: 1, 2: 2, 3: 2, 255: 8, 256: 9, 1 << 31: 32}
	for v, want := range cases {
		if got := KeyBitsFor(v); got != want {
			t.Errorf("KeyBitsFor(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestScanLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	ScanInclusive(2, make([]int, 3), make([]int, 4))
}

func BenchmarkScanInclusive(b *testing.B) {
	x := make([]uint64, 1<<20)
	for i := range x {
		x[i] = uint64(i)
	}
	out := make([]uint64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ScanInclusive(0, x, out)
	}
}

func BenchmarkSortParallel(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	orig := make([]uint32, 1<<20)
	for i := range orig {
		orig[i] = r.Uint32()
	}
	x := make([]uint32, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, orig)
		SortScratch(0, x, nil, func(a, b uint32) bool { return a < b })
	}
}

func BenchmarkRadixSortParallel(b *testing.B) {
	r := rand.New(rand.NewSource(10))
	orig := make([]uint64, 1<<20)
	for i := range orig {
		orig[i] = uint64(r.Uint32())
	}
	x := make([]uint64, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(x, orig)
		RadixSortUint64Scratch(0, x, nil, 32)
	}
}

func TestFilterInto(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 10, 100000} {
		x := make([]int, n)
		for i := range x {
			x[i] = r.Intn(1000)
		}
		pred := func(v int) bool { return v%3 == 0 }
		want := FilterInto(1, x, nil, pred)
		for _, p := range procsUnderTest() {
			// A buffer with enough capacity must be reused in place...
			buf := make([]int, 0, n+1)
			got := FilterInto(p, x, buf, pred)
			if len(got) != len(want) {
				t.Fatalf("p=%d n=%d: len=%d want %d", p, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("p=%d n=%d: order not preserved at %d", p, n, i)
				}
			}
			if len(got) > 0 && &got[0] != &buf[:1][0] {
				t.Fatalf("p=%d n=%d: sufficient buffer was not reused", p, n)
			}
			// ...and an undersized buffer must trigger a clean allocation.
			small := make([]int, 0, 1)
			got2 := FilterInto(p, x, small, pred)
			if len(got2) != len(want) {
				t.Fatalf("p=%d n=%d: undersized-buffer len=%d want %d", p, n, len(got2), len(want))
			}
			for i := range got2 {
				if got2[i] != want[i] {
					t.Fatalf("p=%d n=%d: undersized-buffer mismatch at %d", p, n, i)
				}
			}
		}
	}
}

func TestSortScratchReusesBuffer(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	n := sortSeqCutoff + 101
	scratch := make([]int, n)
	for round := 0; round < 3; round++ {
		orig := make([]int, n)
		for i := range orig {
			orig[i] = r.Intn(n)
		}
		x := make([]int, n)
		copy(x, orig)
		// Round 0 runs on a zeroed buffer, later rounds on a dirtied one.
		SortScratch(8, x, scratch, func(a, b int) bool { return a < b })
		ref := make([]int, n)
		copy(ref, orig)
		SortScratch(1, ref, nil, func(a, b int) bool { return a < b })
		if !reflect.DeepEqual(x, ref) {
			t.Fatalf("round %d: scratch-backed sort diverged", round)
		}
	}
	// An undersized scratch must not be used (the sort grows its own).
	x := make([]int, n)
	for i := range x {
		x[i] = n - i
	}
	SortScratch(8, x, make([]int, 10), func(a, b int) bool { return a < b })
	for i := 1; i < n; i++ {
		if x[i-1] > x[i] {
			t.Fatalf("undersized scratch: not sorted at %d", i)
		}
	}
}

func TestSortScratchLen(t *testing.T) {
	big := sortSeqCutoff + 1
	cases := []struct {
		p, n, want int
	}{
		{1, big, 0},               // sequential fallback: no scratch
		{8, sortSeqCutoff - 1, 0}, // below the cutoff: no scratch
		{8, big, big},             // parallel merge path: full length
		{0, big, 0},               // p=0 resolves to all cores...
	}
	// ...but on a single-core machine p=0 resolves to 1; fix the
	// expectation to whatever ResolveProcs says.
	if ResolveProcs(0) > 1 {
		cases[3].want = big
	}
	for _, tc := range cases {
		if got := SortScratchLen(tc.p, tc.n); got != tc.want {
			t.Fatalf("SortScratchLen(%d, %d) = %d, want %d", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestSortScratchZeroAllocSteadyState pins the pooling contract: with a
// full-length scratch the parallel path performs no buffer allocation
// beyond its goroutine bookkeeping, and SortScratchLen's 0 means the call
// truly ignores scratch.
func TestSortScratchZeroAllocSteadyState(t *testing.T) {
	n := 100
	x := make([]int, n)
	allocs := testing.AllocsPerRun(10, func() {
		for i := range x {
			x[i] = n - i
		}
		// Sequential fallback (n below cutoff): must allocate nothing even
		// with nil scratch, per SortScratchLen's 0.
		SortScratch(8, x, nil, func(a, b int) bool { return a < b })
	})
	if allocs != 0 {
		t.Fatalf("sequential-fallback SortScratch allocates %.1f objects/op, want 0", allocs)
	}
}

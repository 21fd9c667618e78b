package obs

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxUint64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.ns); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for i := 1; i < NumBuckets-1; i++ {
		if bucketOf(BucketUpper(i)) != i {
			t.Errorf("BucketUpper(%d)=%d lands in bucket %d", i, BucketUpper(i), bucketOf(BucketUpper(i)))
		}
		if bucketOf(BucketUpper(i)+1) != i+1 {
			t.Errorf("BucketUpper(%d)+1 should open bucket %d", i, i+1)
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	var h Histogram
	durs := []time.Duration{0, time.Nanosecond, 100, 1000, time.Microsecond, time.Millisecond, 3 * time.Millisecond, time.Second}
	var sum uint64
	for _, d := range durs {
		h.Observe(d)
		sum += uint64(d)
	}
	h.Observe(-5 * time.Second) // clamps to 0
	s := h.Snapshot()
	if s.Count != uint64(len(durs))+1 {
		t.Fatalf("count = %d, want %d", s.Count, len(durs)+1)
	}
	if s.SumNs != sum {
		t.Fatalf("sum = %d, want %d", s.SumNs, sum)
	}
	if s.Max() != time.Second {
		t.Fatalf("max = %v, want 1s", s.Max())
	}
	if s.Buckets[0] != 2 { // the explicit 0 and the clamped negative
		t.Fatalf("bucket 0 = %d, want 2", s.Buckets[0])
	}
	var total uint64
	for _, c := range s.Buckets {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket total %d != count %d", total, s.Count)
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 1µs, 10 of 1ms, 1 of 1s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	h.Observe(time.Second)
	s := h.Snapshot()
	// p50 lands in the 1µs bucket: upper bound < 2µs.
	if q := s.Quantile(0.50); q < time.Microsecond || q >= 2*time.Microsecond {
		t.Errorf("p50 = %v, want in [1µs, 2µs)", q)
	}
	// p95 lands in the 1ms bucket.
	if q := s.Quantile(0.95); q < time.Millisecond || q >= 2*time.Millisecond {
		t.Errorf("p95 = %v, want in [1ms, 2ms)", q)
	}
	// The top quantile clamps to the exact max.
	if q := s.Quantile(1.0); q != time.Second {
		t.Errorf("p100 = %v, want exactly 1s", q)
	}
	// A one-point distribution is exact at every quantile.
	var one Histogram
	one.Observe(42 * time.Millisecond)
	os := one.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99, 1} {
		if got := os.Quantile(q); got != 42*time.Millisecond {
			t.Errorf("single-point q%.2f = %v, want 42ms", q, got)
		}
	}
	var empty HistSnap
	if empty.Quantile(0.99) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*per + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*per {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*per)
	}
	if s.Max() != time.Duration(goroutines*per-1) {
		t.Fatalf("max = %d, want %d", s.Max(), goroutines*per-1)
	}
}

func TestObserveZeroAlloc(t *testing.T) {
	var h Histogram
	to := NewTenantObs()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v per op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { to.Observe(StageWALAppend, time.Microsecond) }); n != 0 {
		t.Errorf("TenantObs.Observe allocates %v per op, want 0", n)
	}
	var nilObs *TenantObs
	if n := testing.AllocsPerRun(1000, func() { nilObs.Observe(StageWALAppend, time.Microsecond) }); n != 0 {
		t.Errorf("nil TenantObs.Observe allocates %v per op, want 0", n)
	}
}

func TestSummary(t *testing.T) {
	var h Histogram
	h.Observe(2 * time.Millisecond)
	snap := h.Snapshot()
	s := snap.Summary()
	if s.Count != 1 || s.MaxMs != 2 || s.P99Ms != 2 {
		t.Fatalf("summary = %+v", s)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for _, st := range Stages() {
		name := st.String()
		if name == "" || name == "unknown" {
			t.Fatalf("stage %d has no name", st)
		}
		if seen[name] {
			t.Fatalf("duplicate stage name %q", name)
		}
		seen[name] = true
	}
	if n := len(Stages()); n < 8 {
		t.Fatalf("len(Stages()) = %d, want >= 8", n)
	}
}

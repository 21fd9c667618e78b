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
	if want := uint64(goroutines*per) * (goroutines*per - 1) / 2; s.SumNs != want {
		t.Fatalf("sum = %d, want %d", s.SumNs, want)
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

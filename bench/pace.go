package main

import (
	"errors"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: its speed wanders by tens of
// per cent over minutes, and no timing of the program alone can tell a
// slow host from a slow program. So the measured phases alternate chunks
// of the program's work with a reference spin — fixed work that no change
// to the repository can alter — of about the same length, on the same
// cores, and every timing is reported relative to the spin (README, Noise).

const (
	// spinIters is the work of one spin: a multiply-xor hash feeding a
	// 4096-entry map, all of it inside the core's own caches, so that it
	// tracks what the host does to the CPU and nothing else.
	spinIters = 12_000_000
	// spinRef is what one spin takes on the reference box when the host is
	// quiet. Dividing by it keeps the reported numbers in their natural
	// units: msgs/s, µs and s at the reference box's speed.
	spinRef = 104 * time.Millisecond
)

// spinner owns the state of one goroutine's spins.
type spinner struct {
	m    map[uint64]uint64
	sink uint64
}

func newSpinner() *spinner { return &spinner{m: make(map[uint64]uint64, 4096)} }

// spin does the reference work once and returns how long it took.
func (s *spinner) spin() time.Duration {
	t0 := time.Now()
	var h uint64 = 1469598103934665603
	for i := 0; i < spinIters; i++ {
		h ^= uint64(i)
		h *= 1099511628211
		s.m[h&4095] += h
	}
	s.sink += h
	return time.Since(t0)
}

// spinTogether runs reps spins on each of n goroutines at once, as the
// paced phases do, and returns the n·reps times.
func spinTogether(n, reps int) []time.Duration {
	out := make([]time.Duration, n*reps)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newSpinner()
			for r := 0; r < reps; r++ {
				out[g*reps+r] = s.spin()
			}
		}()
	}
	wg.Wait()
	return out
}

// hostSpeed is the host's speed relative to the reference box, from the
// spins of one phase: the best quarter of them, the same statistic the
// phase's own chunks are reduced with.
func hostSpeed(spins []time.Duration) float64 {
	secs := make([]float64, len(spins))
	for i, d := range spins {
		secs[i] = d.Seconds()
	}
	if best := bestQuarter(secs, false); best > 0 {
		return spinRef.Seconds() / best
	}
	return 1
}

var errPhaseAborted = errors.New("phase aborted: another driver goroutine failed")

// pacer keeps the n driver goroutines of a phase in step: between two
// chunks of work they wait for each other, each runs one spin while the
// server sits idle, and they leave together.
type pacer struct {
	n       int
	mu      sync.Mutex
	arrived int
	release chan struct{}
	dead    chan struct{}
	once    sync.Once
	spins   []time.Duration
}

func newPacer(n int) *pacer {
	return &pacer{n: n, release: make(chan struct{}), dead: make(chan struct{})}
}

// abort releases every goroutine waiting now or later; a goroutine that
// fails calls it so that the others do not wait for it forever.
func (p *pacer) abort() { p.once.Do(func() { close(p.dead) }) }

// sync returns once all n goroutines have called it.
func (p *pacer) sync() error {
	p.mu.Lock()
	p.arrived++
	if p.arrived == p.n {
		p.arrived = 0
		close(p.release)
		p.release = make(chan struct{})
		p.mu.Unlock()
		return nil
	}
	release := p.release
	p.mu.Unlock()
	select {
	case <-release:
		return nil
	case <-p.dead:
		return errPhaseAborted
	}
}

// pause is what every goroutine calls between two chunks (and before the
// first and after the last). mark, if not nil, runs on this goroutine
// when every goroutine's chunk has ended and again when every spin has:
// the two moments the server's CPU clock is read.
func (p *pacer) pause(s *spinner, mark func()) error {
	if err := p.sync(); err != nil {
		return err
	}
	if mark != nil {
		mark()
	}
	took := s.spin()
	p.mu.Lock()
	p.spins = append(p.spins, took)
	p.mu.Unlock()
	if err := p.sync(); err != nil {
		return err
	}
	if mark != nil {
		mark()
	}
	return nil
}

// chunk is one unit of fixed work of a paced phase as one goroutine ran
// it: stamps on the run's clock, and messages or GETs done.
type chunk struct {
	start, end int64
	work       int
}

// chunkWork and chunkWall combine chunk i of every goroutine: the work
// adds up, and the wall time runs from the first start to the last end.
func chunkWork(per [][]chunk, i int) (work int) {
	for _, cs := range per {
		work += cs[i].work
	}
	return work
}

func chunkWall(per [][]chunk, i int) time.Duration {
	start, end := per[0][i].start, per[0][i].end
	for _, cs := range per[1:] {
		start, end = min(start, cs[i].start), max(end, cs[i].end)
	}
	return time.Duration(end - start)
}

// chunkRates is work per second in each chunk.
func chunkRates(per [][]chunk) []float64 {
	if len(per) == 0 {
		return nil
	}
	rates := make([]float64, len(per[0]))
	for i := range rates {
		rates[i] = float64(chunkWork(per, i)) / chunkWall(per, i).Seconds()
	}
	return rates
}

// chunkMean is all the work over all the chunks' wall time: the plain
// mean rate of the phase, pauses left out.
func chunkMean(per [][]chunk) float64 {
	if len(per) == 0 {
		return 0
	}
	work, wall := 0, time.Duration(0)
	for i := range per[0] {
		work += chunkWork(per, i)
		wall += chunkWall(per, i)
	}
	return float64(work) / wall.Seconds()
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that has at least tailBeyond
// samples above it — the value at rank n−tailBeyond (1-based) — and that
// percentile. With fewer samples it falls back to the maximum.
func tail(xs []float64) (value, percentile float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// coloringDigest fingerprints a coloring.
func coloringDigest(chi []int32) string {
	h := sha256.New()
	var buf [4]byte
	for _, c := range chi {
		binary.LittleEndian.PutUint32(buf[:], uint32(c))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// chainDigest folds a sequence of digests into one.
func chainDigest(ds []string) string {
	h := sha256.New()
	for _, d := range ds {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// totalAlloc is the Go heap's cumulative allocation in bytes.
func totalAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// l2Probe is the host-interference probe: a fixed pointer chase through
// a random single cycle over 4 MiB, twice the L2 of the reference host,
// so every step misses L2. Its time tracks the host's memory speed
// phases; it calls no code of the program.
type l2Probe struct{ next []uint32 }

const (
	probeEntries = 1 << 20 // 4 MiB of uint32
	probeSteps   = 3 << 16 // 10–20 ms on the reference host
)

func newL2Probe() *l2Probe {
	next := make([]uint32, probeEntries)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: a uniformly random permutation with one cycle.
	rng := rand.New(rand.NewSource(0x12c0be))
	for i := len(next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		next[i], next[j] = next[j], next[i]
	}
	return &l2Probe{next: next}
}

var probeSink uint32

// run times one probe pass in milliseconds.
func (p *l2Probe) run() float64 {
	start := time.Now()
	i := uint32(0)
	for s := 0; s < probeSteps; s++ {
		i = p.next[i]
	}
	probeSink = i
	return ms(time.Since(start))
}

// nearBorders orders the op classes by median latency and lists each
// percentile in qs (as a fraction) that lies within 3% of a cumulative
// border between two classes whose medians differ by more than 10%:
// such a percentile would jump between latency modes from run to run.
func nearBorders(byClass map[string][]float64, qs []float64) []float64 {
	type cls struct {
		med float64
		n   int
	}
	var cs []cls
	total := 0
	for _, xs := range byClass {
		cs = append(cs, cls{median(xs), len(xs)})
		total += len(xs)
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].med < cs[j].med })
	near := []float64{}
	cum := 0
	for i, c := range cs[:max(len(cs)-1, 0)] {
		cum += c.n
		if cs[i+1].med <= 1.1*c.med {
			continue
		}
		border := float64(cum) / float64(total)
		for _, q := range qs {
			if math.Abs(q-border) < 0.03 {
				near = append(near, q)
			}
		}
	}
	return near
}

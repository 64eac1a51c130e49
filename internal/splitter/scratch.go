package splitter

import (
	"math"
	"sync"
)

// FM scratch: every Refined.Split used to allocate two O(N) boolean masks
// (W-membership and U-membership) plus a per-pass moved map — the dominant
// allocation of the oracle on large graphs, paid again at every hierarchy
// level of a multilevel run. The masks now draw epoch-stamped int32
// buffers from a pool: membership is "stamp equals the current epoch", so
// clearing between calls is one counter increment instead of an O(N) wipe,
// and the buffers are reused process-wide. Concurrent Split calls each
// acquire their own workspace, preserving the Splitter concurrency
// contract.

// fmScratch is one refine call's workspace. Three arrays are indexed by
// vertex id: w marks W-membership, u marks U-membership (revocable:
// flipping a vertex out of U stores −1, which no positive epoch ever
// equals), and pos maps a vertex of W to its position in W (valid only
// where w is stamped, so it is never cleared). The rest is indexed by
// position in W: the cached gains, the per-slot flags (moved this pass,
// on the candidate list) and the candidate list itself.
type fmScratch struct {
	w     []int32
	u     []int32
	pos   []int32
	epoch int32

	gain  []float64
	flags []uint8
	cands []int32
}

// Slot flags of fmScratch.flags.
const (
	slotMoved  uint8 = 1 << iota // flipped this pass; locked until the next
	slotOnList                   // present in fmScratch.cands
)

var fmPool = sync.Pool{New: func() any { return &fmScratch{} }}

// acquireFM returns a workspace covering n vertices and m slots with a
// fresh epoch. The epoch only grows, so bumping it invalidates every
// stale mark at once; the one overflow per ~2 billion acquisitions pays
// an explicit wipe. The slot arrays come back uninitialized: refine
// writes every gain and flag of its W before reading one. Callers must
// releaseFM when done; the splitting set is copied out, so nothing
// aliases the workspace afterwards.
func acquireFM(n, m int) *fmScratch {
	s := fmPool.Get().(*fmScratch)
	if s.epoch == math.MaxInt32 {
		clear(s.w)
		clear(s.u)
		s.epoch = 0
	}
	s.epoch++
	s.w = grow(s.w, n)
	s.u = grow(s.u, n)
	s.pos = grow(s.pos, n)
	s.gain = grow(s.gain, m)[:m]
	s.flags = grow(s.flags, m)[:m]
	s.cands = grow(s.cands, m)[:0]
	return s
}

// grow returns buf resliced to its full capacity, reallocated first if
// that capacity is below n.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:cap(buf)]
}

// releaseFM returns the workspace to the pool.
func releaseFM(s *fmScratch) { fmPool.Put(s) }

func (s *fmScratch) inW(v int32) bool { return s.w[v] == s.epoch }
func (s *fmScratch) inU(v int32) bool { return s.u[v] == s.epoch }

// markW stamps v as a member of W at position i.
func (s *fmScratch) markW(v int32, i int) {
	s.w[v] = s.epoch
	s.pos[v] = int32(i)
}

func (s *fmScratch) setU(v int32, in bool) {
	if in {
		s.u[v] = s.epoch
	} else {
		s.u[v] = -1
	}
}

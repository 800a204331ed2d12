package curve

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// The multi-scalar multiplication Σ kᵢ·Pᵢ is the prover's dominant cost,
// so it gets the full production treatment:
//
//   - signed-digit recoding: window digits live in [-2^(c-1), 2^(c-1)]
//     instead of [0, 2^c), halving the bucket count per window (negative
//     digits add the negated point, a free transform in affine form);
//   - batch-affine buckets: bucket inserts are affine additions whose
//     chord/tangent denominators are inverted together (Montgomery's
//     trick), ~6 field muls amortized against ~15 for a Jacobian mixed
//     add;
//   - two-dimensional parallelism: work is split into point sub-ranges ×
//     window groups and scheduled on par.Each, so the MSM keeps scaling
//     past the ~20-window ceiling of window-only parallelism;
//   - one driver for resident and streamed points: the streamed MSM
//     (stream.go) feeds the same cells chunk by chunk, and their buckets
//     persist until one reduction at the end;
//   - a precomputed-digit API (DecomposeScalars + MultiExp*Decomposed)
//     so a caller multiplying one scalar vector against several bases —
//     the Groth16 prover's A/B1/B2 queries — recodes the scalars once.
//
// One generic core (msmDriver / msmAccumulate) drives both groups; G1 and
// G2 plug in only their batch adders (g1BatchAdder / g2BatchAdder), and
// the Jacobian fold ops below are generic over the point types.

// MSMWindowSize picks the Pippenger window width c for n points under
// signed-digit recoding (2^(c-1) buckets per window). The heuristic
// balances n inserts plus two bucket-scan additions per window against
// the ~254/c window count. Capped at 15 so digits fit int16.
func MSMWindowSize(n int) int {
	switch {
	case n < 8:
		return 3
	case n < 64:
		return 4
	case n < 256:
		return 5
	case n < 1024:
		return 7
	case n < 4096:
		return 8
	case n < 16384:
		return 9
	case n < 1<<16:
		return 11
	case n < 1<<18:
		return 12
	case n < 1<<20:
		return 13
	case n < 1<<22:
		return 14
	default:
		return 15
	}
}

// scalarWindow extracts the c-bit digit starting at bit offset from the
// little-endian limb representation.
func scalarWindow(limbs *[fr.Limbs]uint64, offset, c int) uint64 {
	limb := offset / 64
	shift := offset % 64
	if limb >= fr.Limbs {
		return 0
	}
	v := limbs[limb] >> shift
	if shift+c > 64 && limb+1 < fr.Limbs {
		v |= limbs[limb+1] << (64 - shift)
	}
	return v & ((1 << c) - 1)
}

// ScalarDecomposition holds the signed window digits of a scalar vector:
// the reusable half of an MSM. A decomposition computed once serves any
// number of MultiExp*Decomposed calls over bases of the same length — in
// either group, since digits depend only on the scalars.
type ScalarDecomposition struct {
	c int
	n int
	// used counts the windows up to the highest nonzero digit. Real
	// witnesses are dominated by bit wires and small fixed-point values,
	// so their digits live in a handful of low windows — the MSM skips
	// the all-zero rest outright.
	used int
	// digits[w*n+i] is scalar i's signed digit for window w, in
	// [-(2^(c-1)-1), 2^(c-1)].
	digits []int16
}

// C returns the window width the scalars were recoded at.
func (d *ScalarDecomposition) C() int { return d.c }

// Len returns the number of scalars in the decomposition.
func (d *ScalarDecomposition) Len() int { return d.n }

// row returns the digit row of window w.
func (d *ScalarDecomposition) row(w int) []int16 {
	return d.digits[w*d.n : (w+1)*d.n]
}

// DecomposeScalars recodes scalars into signed c-bit window digits
// (2 ≤ c ≤ 15; use MSMWindowSize to pick c for a given size). Each
// window value v ∈ [0, 2^c] (window bits plus incoming carry) becomes
// v-2^c with a carry into the next window when v > 2^(c-1), so every
// digit needs only 2^(c-1) buckets. One extra top window absorbs the
// final carry; scalars are < 2^254, so recoding always terminates with
// carry zero.
func DecomposeScalars(scalars []fr.Element, c int) *ScalarDecomposition {
	return decomposeScalarsInto(nil, scalars, c)
}

// msmWindows returns the number of signed-digit windows of width c
// (2 ≤ c ≤ 15): enough to cover fr.Bits plus one carry window.
func msmWindows(c int) int {
	if c < 2 || c > 15 {
		panic("curve: DecomposeScalars window width out of range [2,15]")
	}
	return (fr.Bits+c-1)/c + 1
}

// decomposeScalarsInto is DecomposeScalars reusing d's digit storage
// when it is large enough — the streamed MSM recodes thousands of
// chunks per proof, and a fresh digit table per chunk is pure GC churn.
// The digits written are identical to a fresh decomposition (recoding
// is per-scalar and every slot in the reused window rows is
// overwritten), so results are unchanged. Passing nil allocates.
func decomposeScalarsInto(d *ScalarDecomposition, scalars []fr.Element, c int) *ScalarDecomposition {
	n := len(scalars)
	windows := msmWindows(c)
	if d == nil || cap(d.digits) < windows*n {
		d = &ScalarDecomposition{digits: make([]int16, windows*n)}
	}
	d.c, d.n = c, n
	d.digits = d.digits[:windows*n]
	half := int64(1) << (c - 1)
	full := int64(1) << c
	var maxUsed atomic.Int64
	par.Range(n, func(start, end int) {
		localUsed := 0
		for i := start; i < end; i++ {
			limbs := scalars[i].RegularLimbs()
			carry := int64(0)
			for w := 0; w < windows; w++ {
				v := int64(scalarWindow(&limbs, w*c, c)) + carry
				carry = 0
				if v > half {
					v -= full
					carry = 1
				}
				d.digits[w*n+i] = int16(v)
				if v != 0 && w+1 > localUsed {
					localUsed = w + 1
				}
			}
		}
		for {
			cur := maxUsed.Load()
			if int64(localUsed) <= cur || maxUsed.CompareAndSwap(cur, int64(localUsed)) {
				break
			}
		}
	})
	d.used = int(maxUsed.Load())
	return d
}

// msmBatchSize caps the number of independent bucket additions gathered
// before one shared inversion, amortizing it to ~1.5 field muls per add
// while keeping the op queue cache-resident. The actual batch is scaled
// down to numBuckets/8 — a batch near the bucket count makes conflicts
// the common case and starves the scheduler.
const msmBatchSize = 512

// msmMinBatch is the smallest batch worth an inversion; below it (few
// buckets even after window grouping) the Jacobian path wins.
const msmMinBatch = 16

// msmGroupBuckets is the combined bucket-pool target for a window
// group: enough buckets that a full msmBatchSize batch stays mostly
// conflict-free (batch/pool = 1/16).
const msmGroupBuckets = 8192

// msmOverflowCap is the conflict queue's initial capacity. The queue
// holds ops whose bucket is already in the pending batch; every flush
// drains it into the next batch, so it hovers near the per-batch
// conflict count and growth past the cap is rare.
const msmOverflowCap = 512

// msmMinChunk is the minimum number of points per point sub-range: below
// this the per-cell bucket allocation and reduction dominate the inserts.
const msmMinChunk = 512

// msmSerialThreshold is the point count under which the whole MSM runs
// on the calling goroutine — parallel dispatch overhead is a measurable
// fraction of a millisecond-scale MSM.
const msmSerialThreshold = 1024

// msmAffineThreshold is the point count under which the batch-affine
// machinery can't amortize its flush inversions and plain Jacobian
// bucket accumulation wins.
const msmAffineThreshold = 512

// batchOps is the leaf interface of the batch-affine accumulation,
// implemented by g1BatchAdder and g2BatchAdder.
type batchOps[A, J any] interface {
	isInfinity(p *A) bool
	negInto(dst, src *A)
	flush(buckets []A, idx []int32, pts []A)
	// addMixedJac folds one conflict-queue spill into a Jacobian side
	// bucket (p is already negated when the digit was negative).
	addMixedJac(dst *J, p *A)
}

// batchOp is one deferred bucket addition sitting in the conflict queue.
type batchOp[A any] struct {
	b  int32
	pt A
}

// msmAccumulate folds one cell's points into signed-digit buckets.
// digitRows[g] holds the digits of the g-th window in the group, and
// that window owns the bucket segment [g·bucketsPerWindow,
// (g+1)·bucketsPerWindow) of sc.bucketsA: grouping narrow windows
// multiplies the bucket pool so batches stay large — one window of 256
// buckets can never amortize a 256-op batch, eight of them can.
//
// A flush requires distinct buckets (so its affine adds are
// independent); ops that would duplicate a pending bucket wait in an
// overflow queue and re-enter after the next flush, which keeps batches
// full — flushing on first conflict would cap them near √buckets by the
// birthday bound. Negative digits enqueue the negated point.
//
// Real witnesses repeat values (bit wires, shared constants), sending
// thousands of ops to one bucket; a queue alone would readmit one per
// flush and melt down quadratically. When the queue fills it is dumped
// into Jacobian side buckets instead — hot buckets degrade to exactly
// the plain-Jacobian cost while everything else stays batch-affine.
// Spills land on a handful of hot buckets, so the side buckets are
// sparse: sc.side holds one Jacobian sum per spilled bucket (listed in
// sc.sideB, located through sc.sideSlot) until the driver's reduction
// folds them in.
func msmAccumulate[A, J any, AD batchOps[A, J]](adder AD, sc *msmScratch[A, J], bucketsPerWindow int, points []A, digitRows [][]int16) {
	buckets, pending, idx, pts := sc.bucketsA, sc.pending, sc.idx, sc.pts
	cnt := 0
	if cap(sc.overflow) < msmOverflowCap {
		sc.overflow = make([]batchOp[A], 0, msmOverflowCap)
	}
	overflow := sc.overflow[:0]
	drainToSide := func() {
		sc.sideSlot = grow(sc.sideSlot, len(buckets)) // all zero between reductions
		for k := range overflow {
			o := &overflow[k]
			slot := sc.sideSlot[o.b]
			if slot == 0 {
				var inf J // zero Jacobian value has Z = 0: infinity
				sc.side = append(sc.side, inf)
				sc.sideB = append(sc.sideB, o.b)
				slot = int32(len(sc.side))
				sc.sideSlot[o.b] = slot
			}
			adder.addMixedJac(&sc.side[slot-1], &o.pt)
		}
		overflow = overflow[:0]
	}
	flush := func() {
		adder.flush(buckets, idx[:cnt], pts[:cnt])
		for _, b := range idx[:cnt] {
			pending[b] = false
		}
		cnt = 0
		// Re-admit queued ops; first occurrence of each bucket always
		// enters the fresh batch, so the queue strictly shrinks.
		kept := overflow[:0]
		for k := range overflow {
			o := &overflow[k]
			if pending[o.b] || cnt == len(idx) {
				kept = append(kept, *o)
				continue
			}
			pts[cnt] = o.pt
			idx[cnt] = o.b
			pending[o.b] = true
			cnt++
		}
		overflow = kept
	}
	for i := range points {
		if adder.isInfinity(&points[i]) {
			continue
		}
		for g := range digitRows {
			d := digitRows[g][i]
			if d == 0 {
				continue
			}
			b := int32(d)
			neg := false
			if b < 0 {
				b = -b
				neg = true
			}
			b += int32(g*bucketsPerWindow) - 1
			if pending[b] {
				// Build the op in place: a local would escape through the
				// adder's generic negInto and cost a heap allocation.
				overflow = append(overflow, batchOp[A]{b: b})
				op := &overflow[len(overflow)-1]
				if neg {
					adder.negInto(&op.pt, &points[i])
				} else {
					op.pt = points[i]
				}
				if len(overflow) >= msmOverflowCap {
					drainToSide()
				}
				continue
			}
			if neg {
				adder.negInto(&pts[cnt], &points[i])
			} else {
				pts[cnt] = points[i]
			}
			idx[cnt] = b
			pending[b] = true
			cnt++
			if cnt == len(idx) {
				flush()
			}
		}
	}
	// Final drain: one flush applies the open batch and re-admits what it
	// can; anything still queued is same-bucket repetition with no more
	// stream to amortize against, so it spills to the Jacobian side
	// rather than trickling out one op per inversion.
	for cnt > 0 {
		flush()
		if len(overflow) > 0 {
			drainToSide()
		}
	}
	sc.overflow = overflow[:0]
}

// msmCurve is the group-level interface of the shared Pippenger driver.
type msmCurve[A, J any] interface {
	// accumulator returns a closure over a fresh batch adder (whose
	// scratch persists across flushes) running msmAccumulate for this
	// group.
	accumulator(batchSize int) func(sc *msmScratch[A, J], bucketsPerWindow int, points []A, digitRows [][]int16)
	// jacAccumulate folds digits into Jacobian buckets with mixed adds —
	// the small-MSM path, where batch-affine flushes can't amortize
	// their inversion.
	jacAccumulate(buckets []J, points []A, digits []int16)
	infinity() J
	// reduce sets sum = Σ_b (b+1)·buckets[b] with the usual running-sum
	// scan (affine buckets, so the inner add is mixed).
	reduce(buckets []A, sum *J)
	// jacReduce is reduce over Jacobian buckets.
	jacReduce(buckets []J, sum *J)
	add(dst, src *J)
	double(dst *J)
	// scratchPool recycles cell bucket scratch (one homogeneous
	// *msmScratch[A, J] pool per curve): a proof runs dozens of MSMs, and
	// allocating MB-sized bucket sets per MSM is pure GC churn.
	scratchPool() *sync.Pool
	// accelerated routes one pre-decomposed MSM to acc's entry point for
	// this group — how the streamed driver dispatches each chunk through
	// a registered non-default Accelerator.
	accelerated(acc Accelerator, points []A, dec *ScalarDecomposition) J
}

// msmScratch is the recycled working set of one cell. Buckets are
// re-zeroed when a cell takes the scratch (the zero affine value is
// infinity, matching a fresh make); idx, pts and the overflow queue need
// no clearing — msmAccumulate only reads what it wrote — and the sparse
// side buckets are emptied by every reduction, leaving sideSlot all zero.
type msmScratch[A, J any] struct {
	bucketsJ []J
	bucketsA []A
	pending  []bool
	idx      []int32
	pts      []A
	overflow []batchOp[A]
	side     []J
	sideB    []int32
	sideSlot []int32
}

var g1ScratchPool, g2ScratchPool sync.Pool

// grow returns s[:n] with the backing array reallocated when too small,
// without zeroing retained contents — callers reset what they read.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// msmCell is one cell of the driver's work decomposition: a point
// sub-range crossed with a run of windows [w0, w1), accumulated
// batch-affine or Jacobian. A cell owns its buckets from its first
// insert to its reduction, so across the chunks of a streamed MSM each
// cell keeps filling the same bucket set.
type msmCell[A, J any] struct {
	sub        int
	w0, w1     int
	affine     bool
	sc         *msmScratch[A, J] // nil before the first insert and after the reduction
	accumulate func(sc *msmScratch[A, J], bucketsPerWindow int, points []A, digitRows [][]int16)
	rows       [][]int16
}

// msmDriver is the shared signed-digit Pippenger driver behind both the
// in-memory and the streamed MSM. Its schedule depends only on the total
// point count n and the window count: work splits two-dimensionally into
// point sub-ranges × window groups, and each cell owns its buckets. The
// points arrive in one or more chunks (add); every chunk is split into
// the same sub-ranges and its cells run in parallel, inserting into
// buckets that persist across chunks. Buckets are reduced once, after
// the last chunk, and the final fold is a cheap serial pass over
// numSubs·numWindows partial sums.
//
// Narrow windows are grouped so one batch-affine pass owns several
// bucket segments at once: a single 256-bucket window can never keep a
// 256-op batch conflict-free, eight of them together can — and the
// group scans the point array once instead of once per window. The top
// windows see only the scalar's high-order sliver of bits, so their
// digits crowd a handful of buckets; they take the Jacobian path, as do
// small MSMs where flush inversions can't amortize.
type msmDriver[A, J any, CV msmCurve[A, J]] struct {
	cv         CV
	c          int
	numBuckets int
	numWindows int
	numSubs    int
	batch      int
	serial     bool
	cells      []msmCell[A, J]
	// partials[sub*numWindows+w] is window w's sum over sub-range sub.
	partials []J
	// used is the highest window count with a nonzero digit over every
	// chunk seen: the Horner fold never doubles past it.
	used int
	// lanes, when non-nil, records one span per cell run under label.
	lanes *obs.Lanes
	label string
}

// newMSMDriver plans an MSM of n points whose digits, recoded at window
// width c, are nonzero in at most numWindows windows. tr, when non-nil,
// records one span per cell run under label on a pool of worker lanes —
// the per-window MSM attribution of the telemetry subsystem.
func newMSMDriver[A, J any, CV msmCurve[A, J]](cv CV, n, c, numWindows int, tr *obs.Trace, label string) *msmDriver[A, J, CV] {
	numBuckets := 1 << (c - 1)

	// Windows 0..wide-1 draw digits from the scalar's full range.
	wide := min(fr.Bits/c, numWindows)

	group, batch := 1, 0
	useAffine := n >= msmAffineThreshold && wide > 0
	if useAffine {
		group = min((msmGroupBuckets+numBuckets-1)/numBuckets, wide)
		batch = min(group*numBuckets/16, msmBatchSize)
		if batch < msmMinBatch {
			useAffine = false
			group = 1
		}
	}

	taskCols := numWindows
	if useAffine {
		taskCols = (wide+group-1)/group + (numWindows - wide)
	}
	numSubs := min((par.Workers()+taskCols-1)/taskCols, (n+msmMinChunk-1)/msmMinChunk)

	d := &msmDriver[A, J, CV]{
		cv: cv, c: c, numBuckets: numBuckets, numWindows: numWindows, numSubs: numSubs, batch: batch,
		// Tiny MSMs finish in milliseconds serially; goroutine dispatch
		// would cost a measurable slice of that, so they stay inline.
		serial: n < msmSerialThreshold,
		cells:  make([]msmCell[A, J], 0, numSubs*taskCols),
		label:  label,
	}
	for sub := 0; sub < numSubs; sub++ {
		jacFrom := 0
		if useAffine {
			for w0 := 0; w0 < wide; w0 += group {
				d.cells = append(d.cells, msmCell[A, J]{sub: sub, w0: w0, w1: min(w0+group, wide), affine: true})
			}
			jacFrom = wide
		}
		for w := jacFrom; w < numWindows; w++ {
			d.cells = append(d.cells, msmCell[A, J]{sub: sub, w0: w, w1: w + 1})
		}
	}
	d.partials = make([]J, numSubs*numWindows)
	for i := range d.partials {
		d.partials[i] = cv.infinity()
	}
	if tr != nil {
		d.lanes = tr.Lanes(par.Workers())
	}
	return d
}

// add inserts one chunk of points, whose digits dec were recoded at the
// driver's window width, into the cells' buckets, running the cells in
// parallel. With last set, each cell reduces its buckets right after its
// final insert and hands its scratch back, so a one-chunk MSM holds at
// most one bucket set per worker.
func (d *msmDriver[A, J, CV]) add(points []A, dec *ScalarDecomposition, last bool) {
	d.used = max(d.used, dec.used)
	subLen := (len(points) + d.numSubs - 1) / d.numSubs
	run := func(t int) {
		cell := &d.cells[t]
		if d.lanes != nil {
			sp := d.lanes.Span(d.label + "/w" + strconv.Itoa(cell.w0) + "-" + strconv.Itoa(cell.w1) +
				"/c" + strconv.Itoa(cell.sub))
			defer sp.End()
		}
		start := min(cell.sub*subLen, len(points))
		end := min(start+subLen, len(points))
		// Windows at or past dec.used hold only zero digits in this chunk.
		if w1 := min(cell.w1, dec.used); start < end && cell.w0 < w1 {
			d.accumulate(cell, points[start:end], dec, start, w1)
		}
		if last {
			d.reduce(cell)
		}
	}
	if d.serial {
		for t := range d.cells {
			run(t)
		}
	} else {
		par.Each(len(d.cells), run)
	}
}

// accumulate inserts points — the dec sub-range starting at start — into
// cell's buckets for windows [cell.w0, w1).
func (d *msmDriver[A, J, CV]) accumulate(cell *msmCell[A, J], points []A, dec *ScalarDecomposition, start, w1 int) {
	end := start + len(points)
	if cell.sc == nil {
		d.acquire(cell)
	}
	sc := cell.sc
	if !cell.affine {
		d.cv.jacAccumulate(sc.bucketsJ, points, dec.row(cell.w0)[start:end])
		return
	}
	cell.rows = cell.rows[:0]
	for w := cell.w0; w < w1; w++ {
		cell.rows = append(cell.rows, dec.row(w)[start:end])
	}
	cell.accumulate(sc, d.numBuckets, points, cell.rows)
}

// acquire takes a pooled scratch for cell and resets its buckets.
func (d *msmDriver[A, J, CV]) acquire(cell *msmCell[A, J]) {
	sc, _ := d.cv.scratchPool().Get().(*msmScratch[A, J])
	if sc == nil {
		sc = &msmScratch[A, J]{}
	}
	if cell.affine {
		size := (cell.w1 - cell.w0) * d.numBuckets
		sc.bucketsA = grow(sc.bucketsA, size)
		clear(sc.bucketsA) // zero value is affine infinity
		sc.pending = grow(sc.pending, size)
		clear(sc.pending)
		sc.idx = grow(sc.idx, d.batch)
		sc.pts = grow(sc.pts, d.batch)
		if cell.accumulate == nil {
			cell.accumulate = d.cv.accumulator(d.batch)
		}
	} else {
		sc.bucketsJ = grow(sc.bucketsJ, d.numBuckets)
		inf := d.cv.infinity()
		for b := range sc.bucketsJ {
			sc.bucketsJ[b] = inf
		}
	}
	cell.sc = sc
}

// reduce folds cell's buckets into the window partials and returns its
// scratch to the pool; a cell that never received a point is a no-op.
func (d *msmDriver[A, J, CV]) reduce(cell *msmCell[A, J]) {
	sc := cell.sc
	if sc == nil {
		return
	}
	for w := cell.w0; w < min(cell.w1, d.used); w++ {
		var sum J
		if cell.affine {
			j := w - cell.w0
			d.cv.reduce(sc.bucketsA[j*d.numBuckets:(j+1)*d.numBuckets], &sum)
		} else {
			d.cv.jacReduce(sc.bucketsJ, &sum)
		}
		d.cv.add(&d.partials[cell.sub*d.numWindows+w], &sum)
	}
	// Side bucket b of the cell holds spilled ops of digit b%numBuckets+1
	// in window w0+b/numBuckets. Spills hit a few hot buckets (about one
	// per window on prover witnesses), so each is weighted by
	// double-and-add rather than a running-sum scan over every bucket.
	for k, b := range sc.sideB {
		w := cell.w0 + int(b)/d.numBuckets
		term := d.mulSmall(&sc.side[k], int(b)%d.numBuckets+1)
		d.cv.add(&d.partials[cell.sub*d.numWindows+w], &term)
		sc.sideSlot[b] = 0
	}
	sc.side, sc.sideB = sc.side[:0], sc.sideB[:0]
	d.cv.scratchPool().Put(sc)
	cell.sc = nil
}

// mulSmall returns k·p for a bucket weight k ≥ 1 by double-and-add.
func (d *msmDriver[A, J, CV]) mulSmall(p *J, k int) J {
	res := d.cv.infinity()
	for i := bits.Len(uint(k)) - 1; i >= 0; i-- {
		d.cv.double(&res)
		if k>>i&1 == 1 {
			d.cv.add(&res, p)
		}
	}
	return res
}

// finish reduces any buckets still live (a stream whose last chunk went
// to a registered Accelerator) and returns the Horner fold over windows,
// most significant first; within a window, sub-range partials just add.
func (d *msmDriver[A, J, CV]) finish() J {
	for t := range d.cells {
		d.reduce(&d.cells[t])
	}
	res := d.cv.infinity()
	for w := d.used - 1; w >= 0; w-- {
		if w != d.used-1 {
			for i := 0; i < d.c; i++ {
				d.cv.double(&res)
			}
		}
		for sub := 0; sub < d.numSubs; sub++ {
			d.cv.add(&res, &d.partials[sub*d.numWindows+w])
		}
	}
	return res
}

// multiExp is the in-memory MSM: the one-chunk call of the shared
// driver, planned for exactly the windows the digits use — all-zero top
// windows (small witness values) are skipped outright.
//
// tr, when non-nil, records one span per point-range×window-group cell
// under label on a pool of worker lanes. The nil path adds only a nil
// check per cell.
func multiExp[A, J any, CV msmCurve[A, J]](cv CV, points []A, dec *ScalarDecomposition, tr *obs.Trace, label string) J {
	if len(points) == 0 {
		return cv.infinity()
	}
	if len(points) != dec.n {
		panic("curve: MultiExp decomposition length mismatch")
	}
	if dec.used == 0 {
		return cv.infinity()
	}
	d := newMSMDriver[A, J](cv, len(points), dec.c, dec.used, tr, label)
	d.add(points, dec, true)
	return d.finish()
}

// jacPoint and affinePoint are the point arithmetic the generic bucket
// loops need, satisfied by *G1Jac/*G2Jac and *G1Affine/*G2Affine.
type jacPoint[A, J any] interface {
	*J
	SetInfinity() *J
	AddMixed(q *A) *J
	AddAssign(q *J) *J
	DoubleAssign() *J
}

type affinePoint[A any] interface {
	*A
	Neg(q *A) *A
}

// groupOps implements the group-generic half of msmCurve once for both
// groups; g1Msm and g2Msm embed it and add the per-group batch adder,
// scratch pool and Accelerator entry point.
type groupOps[A, J any, PA affinePoint[A], PJ jacPoint[A, J]] struct{}

func (groupOps[A, J, PA, PJ]) jacAccumulate(buckets []J, points []A, digits []int16) {
	var neg A // hoisted: it escapes through the generic Neg call
	for i := range digits {
		d := digits[i]
		if d == 0 {
			continue
		}
		if d > 0 {
			PJ(&buckets[d-1]).AddMixed(&points[i])
		} else {
			PA(&neg).Neg(&points[i])
			PJ(&buckets[-d-1]).AddMixed(&neg)
		}
	}
}

func (groupOps[A, J, PA, PJ]) infinity() J {
	var j J
	PJ(&j).SetInfinity()
	return j
}

func (groupOps[A, J, PA, PJ]) reduce(buckets []A, sum *J) {
	var acc J
	PJ(&acc).SetInfinity()
	PJ(sum).SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		PJ(&acc).AddMixed(&buckets[b])
		PJ(sum).AddAssign(&acc)
	}
}

func (groupOps[A, J, PA, PJ]) jacReduce(buckets []J, sum *J) {
	var acc J
	PJ(&acc).SetInfinity()
	PJ(sum).SetInfinity()
	for b := len(buckets) - 1; b >= 0; b-- {
		PJ(&acc).AddAssign(&buckets[b])
		PJ(sum).AddAssign(&acc)
	}
}

func (groupOps[A, J, PA, PJ]) add(dst, src *J) { PJ(dst).AddAssign(src) }
func (groupOps[A, J, PA, PJ]) double(dst *J)   { PJ(dst).DoubleAssign() }

// g1Msm and g2Msm bind the generic driver to the concrete groups.
type g1Msm struct {
	groupOps[G1Affine, G1Jac, *G1Affine, *G1Jac]
}

func (g1Msm) accumulator(batchSize int) func(*msmScratch[G1Affine, G1Jac], int, []G1Affine, [][]int16) {
	adder := newG1BatchAdder(batchSize)
	return func(sc *msmScratch[G1Affine, G1Jac], bucketsPerWindow int, points []G1Affine, digitRows [][]int16) {
		msmAccumulate[G1Affine, G1Jac](adder, sc, bucketsPerWindow, points, digitRows)
	}
}

func (g1Msm) scratchPool() *sync.Pool { return &g1ScratchPool }

func (g1Msm) accelerated(acc Accelerator, points []G1Affine, dec *ScalarDecomposition) G1Jac {
	return acc.MultiExpG1Decomposed(points, dec)
}

type g2Msm struct {
	groupOps[G2Affine, G2Jac, *G2Affine, *G2Jac]
}

func (g2Msm) accumulator(batchSize int) func(*msmScratch[G2Affine, G2Jac], int, []G2Affine, [][]int16) {
	adder := newG2BatchAdder(batchSize)
	return func(sc *msmScratch[G2Affine, G2Jac], bucketsPerWindow int, points []G2Affine, digitRows [][]int16) {
		msmAccumulate[G2Affine, G2Jac](adder, sc, bucketsPerWindow, points, digitRows)
	}
}

func (g2Msm) scratchPool() *sync.Pool { return &g2ScratchPool }

func (g2Msm) accelerated(acc Accelerator, points []G2Affine, dec *ScalarDecomposition) G2Jac {
	return acc.MultiExpG2Decomposed(points, dec)
}

// MultiExpG1 computes Σ scalars[i]·points[i] with the registered
// Accelerator (by default the parallel signed-digit Pippenger method).
// Points and scalars must have equal length; zero scalars and infinity
// points are skipped naturally.
func MultiExpG1(points []G1Affine, scalars []fr.Element) G1Jac {
	return ActiveAccelerator().MultiExpG1(points, scalars)
}

// MultiExpG1Decomposed computes the G1 MSM against pre-recoded scalar
// digits, letting callers amortize DecomposeScalars across several bases
// (the Groth16 prover reuses one witness decomposition for the A, B1,
// and B2 queries).
func MultiExpG1Decomposed(points []G1Affine, dec *ScalarDecomposition) G1Jac {
	return ActiveAccelerator().MultiExpG1Decomposed(points, dec)
}

// MultiExpG2 computes Σ scalars[i]·points[i] over G2.
func MultiExpG2(points []G2Affine, scalars []fr.Element) G2Jac {
	return ActiveAccelerator().MultiExpG2(points, scalars)
}

// MultiExpG2Decomposed computes the G2 MSM against pre-recoded scalar
// digits (see MultiExpG1Decomposed).
func MultiExpG2Decomposed(points []G2Affine, dec *ScalarDecomposition) G2Jac {
	return ActiveAccelerator().MultiExpG2Decomposed(points, dec)
}

// MultiExpG1DecomposedTraced is MultiExpG1Decomposed recording an
// overall span (label) plus per-window task spans on tr. With a
// non-default Accelerator registered, the backend call is recorded as
// one opaque span (the Accelerator interface is trace-agnostic). A nil
// tr is exactly MultiExpG1Decomposed.
func MultiExpG1DecomposedTraced(points []G1Affine, dec *ScalarDecomposition, tr *obs.Trace, label string) G1Jac {
	if tr == nil {
		return MultiExpG1Decomposed(points, dec)
	}
	return multiExpTraced[G1Affine, G1Jac](g1Msm{}, points, dec, tr, label)
}

// MultiExpG2DecomposedTraced is the G2 counterpart of
// MultiExpG1DecomposedTraced.
func MultiExpG2DecomposedTraced(points []G2Affine, dec *ScalarDecomposition, tr *obs.Trace, label string) G2Jac {
	if tr == nil {
		return MultiExpG2Decomposed(points, dec)
	}
	return multiExpTraced[G2Affine, G2Jac](g2Msm{}, points, dec, tr, label)
}

// multiExpTraced runs a decomposed MSM inside a span named label, on the
// CPU driver with per-cell spans or as one opaque Accelerator call.
func multiExpTraced[A, J any, CV msmCurve[A, J]](cv CV, points []A, dec *ScalarDecomposition, tr *obs.Trace, label string) J {
	sp := tr.Span(label)
	defer sp.End()
	acc := ActiveAccelerator()
	if _, cpu := acc.(pippengerCPU); !cpu {
		return cv.accelerated(acc, points, dec)
	}
	return multiExp[A, J](cv, points, dec, tr, label)
}

// MultiExpG1Traced is MultiExpG1 with span recording (see
// MultiExpG1DecomposedTraced). The recoding cost is included in the
// overall span.
func MultiExpG1Traced(points []G1Affine, scalars []fr.Element, tr *obs.Trace, label string) G1Jac {
	if tr == nil {
		return MultiExpG1(points, scalars)
	}
	sp := tr.Span(label)
	defer sp.End()
	acc := ActiveAccelerator()
	if _, cpu := acc.(pippengerCPU); !cpu || len(points) < 2 {
		return acc.MultiExpG1(points, scalars)
	}
	if len(scalars) != len(points) {
		panic("curve: MultiExpG1 length mismatch")
	}
	return multiExp[G1Affine, G1Jac](g1Msm{}, points, DecomposeScalars(scalars, MSMWindowSize(len(points))), tr, label)
}

// fixedBaseWindow is the window width used by fixed-base tables: 8 bits
// trades a ~8k-point table for 32 mixed additions per scalar
// multiplication.
const fixedBaseWindow = 8

// G1FixedBaseTable precomputes multiples of a single base point so that
// many scalar multiplications of that base (the dominant cost of Groth16
// trusted setup) collapse to ~32 mixed additions each.
type G1FixedBaseTable struct {
	windows [][]G1Affine // windows[w][d-1] = (d << (8w))·base
}

// NewG1FixedBaseTable builds the table for the given base.
func NewG1FixedBaseTable(base *G1Jac) *G1FixedBaseTable {
	numWindows := (fr.Bits + fixedBaseWindow) / fixedBaseWindow
	t := &G1FixedBaseTable{windows: make([][]G1Affine, numWindows)}
	cur := *base
	for w := 0; w < numWindows; w++ {
		jacs := make([]G1Jac, (1<<fixedBaseWindow)-1)
		var acc G1Jac
		acc.SetInfinity()
		for d := 0; d < len(jacs); d++ {
			acc.AddAssign(&cur)
			jacs[d] = acc
		}
		t.windows[w] = BatchJacToAffineG1(jacs)
		// cur <<= 8
		for i := 0; i < fixedBaseWindow; i++ {
			cur.DoubleAssign()
		}
	}
	return t
}

// Mul returns k·base using the precomputed table.
func (t *G1FixedBaseTable) Mul(k *fr.Element) G1Jac {
	limbs := k.RegularLimbs()
	var res G1Jac
	res.SetInfinity()
	for w := range t.windows {
		d := scalarWindow(&limbs, w*fixedBaseWindow, fixedBaseWindow)
		if d == 0 {
			continue
		}
		res.AddMixed(&t.windows[w][d-1])
	}
	return res
}

// MulBatch computes k·base for every scalar in ks, in parallel, and
// returns the affine results.
func (t *G1FixedBaseTable) MulBatch(ks []fr.Element) []G1Affine {
	jacs := make([]G1Jac, len(ks))
	par.Range(len(ks), func(start, end int) {
		for i := start; i < end; i++ {
			jacs[i] = t.Mul(&ks[i])
		}
	})
	return BatchJacToAffineG1(jacs)
}

// G2FixedBaseTable is the G2 counterpart of G1FixedBaseTable.
type G2FixedBaseTable struct {
	windows [][]G2Affine
}

// NewG2FixedBaseTable builds the table for the given base.
func NewG2FixedBaseTable(base *G2Jac) *G2FixedBaseTable {
	numWindows := (fr.Bits + fixedBaseWindow) / fixedBaseWindow
	t := &G2FixedBaseTable{windows: make([][]G2Affine, numWindows)}
	cur := *base
	for w := 0; w < numWindows; w++ {
		jacs := make([]G2Jac, (1<<fixedBaseWindow)-1)
		var acc G2Jac
		acc.SetInfinity()
		for d := 0; d < len(jacs); d++ {
			acc.AddAssign(&cur)
			jacs[d] = acc
		}
		t.windows[w] = BatchJacToAffineG2(jacs)
		for i := 0; i < fixedBaseWindow; i++ {
			cur.DoubleAssign()
		}
	}
	return t
}

// Mul returns k·base using the precomputed table.
func (t *G2FixedBaseTable) Mul(k *fr.Element) G2Jac {
	limbs := k.RegularLimbs()
	var res G2Jac
	res.SetInfinity()
	for w := range t.windows {
		d := scalarWindow(&limbs, w*fixedBaseWindow, fixedBaseWindow)
		if d == 0 {
			continue
		}
		res.AddMixed(&t.windows[w][d-1])
	}
	return res
}

// MulBatch computes k·base for every scalar in ks, in parallel.
func (t *G2FixedBaseTable) MulBatch(ks []fr.Element) []G2Affine {
	jacs := make([]G2Jac, len(ks))
	par.Range(len(ks), func(start, end int) {
		for i := start; i < end; i++ {
			jacs[i] = t.Mul(&ks[i])
		}
	})
	return BatchJacToAffineG2(jacs)
}

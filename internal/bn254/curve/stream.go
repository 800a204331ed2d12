package curve

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/par"
)

// Streamed (out-of-core) MSM: the base points (64 B in G1, 128 B in G2,
// and there are three point queries per wire in a Groth16 proving key)
// dominate memory at paper scale, so the streamed driver consumes them
// from a caller-supplied source in bounded chunks, and the scalars from
// a ScalarSource the same way. It is the in-memory Pippenger driver
// (msmDriver) fed one chunk at a time: the window width comes from the
// total MSM size, every cell's buckets persist across chunks, and the
// buckets are reduced once after the last chunk — so a streamed MSM does
// the same bucket work as the one-shot MSM, and the group element is
// identical (streamed and in-memory Groth16 proofs are byte-identical
// after affine normalization).
//
// Chunks are double-buffered: a prefetch goroutine reads and decodes
// chunk i+1 while the cells insert chunk i, overlapping disk latency
// with compute. Each chunk's scalars are recoded just before its
// inserts, so neither side of the MSM is ever fully resident. Peak
// memory is 2·chunk points plus one bucket set: up to 2^(c-1) buckets
// for each of the ~254/c windows at the total-n width c — about 1.5 MiB
// in G1 and 3 MiB in G2 at 2^15 points. The bucket set is a fixed floor
// of the MSM size that a smaller chunk does not shrink.

// DefaultStreamChunk is the default number of points per streamed-MSM
// chunk: 8192 G1 points ≈ 512 KiB of decoded bases (1 MiB in G2). The
// chunk bounds only the point buffers and the per-chunk recode; the
// bucket work does not depend on it. Each chunk pays one read call and
// one parallel dispatch of the cells, so much smaller chunks trade
// prove time for little memory, while larger ones lose the read/compute
// overlap's granularity and add 2·chunk points of RSS.
const DefaultStreamChunk = 1 << 13

// streamChunkSize normalizes a caller-supplied chunk size the way the
// streamed driver does: non-positive selects the default, and a chunk
// larger than the MSM is clamped to it.
func streamChunkSize(n, chunk int) int {
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	if chunk > n {
		chunk = n
	}
	return chunk
}

// G1Source fills dst with the MSM base points [start, start+len(dst)).
// Implementations need not be safe for concurrent calls — the streamed
// driver invokes the source serially from one prefetch goroutine.
type G1Source func(dst []G1Affine, start int) error

// G2Source is the G2 counterpart of G1Source.
type G2Source func(dst []G2Affine, start int) error

// ScalarSource fills dst with the MSM scalars [start, start+len(dst)) —
// the scalar-side analogue of G1Source, for MSMs whose scalars live
// out-of-core too (a spilled witness, a disk-resident quotient). Called
// serially by the streamed driver.
type ScalarSource func(dst []fr.Element, start int) error

// decPool and scalarChunkPool recycle the per-chunk recode and scalar
// read buffers across streamed MSMs: one proof runs five of them back to
// back (A, B1, B2, K, Z) and a long-lived prover runs many proofs. Both
// are fully overwritten per chunk, so results are unchanged.
var decPool, scalarChunkPool sync.Pool

// multiExpStream is the streamed MSM: it pulls bounded point chunks from
// src (prefetching one chunk ahead) and the matching scalars from
// scalars, recodes each chunk at window width c, and feeds it to one
// msmDriver planned for all n points. A registered non-default
// Accelerator instead receives each chunk whole (its contract takes
// point slices) and the partial sums add up; the accelerator is resolved
// per chunk, so a backend registered mid-stream picks up the remaining
// chunks.
//
// tr, when non-nil, records the whole MSM as one span named label, with
// one span per chunk read (on its own lane — reads overlap compute), per
// scalar read and recode, and per chunk's inserts under it — exposing
// whether a streamed prove is disk-bound or compute-bound. The nil path
// costs one nil check per chunk.
func multiExpStream[A, J any, CV msmCurve[A, J]](cv CV, src func(dst []A, start int) error, scalars ScalarSource, n, c, chunk int, tr *obs.Trace, label string) (J, error) {
	sum := cv.infinity()
	if n == 0 {
		return sum, nil
	}
	chunk = streamChunkSize(n, chunk)
	d := newMSMDriver[A, J](cv, n, c, msmWindows(c), nil, "")

	var readName, recodeName, msmName string
	var readLane int
	if tr != nil {
		sp := tr.Span(label)
		defer sp.End()
		readName, recodeName, msmName = label+"/read", label+"/recode", label+"/msm"
		readLane = tr.NextLane()
	}

	type filled struct {
		buf        []A
		start, end int
		err        error
	}
	fills := make(chan filled)
	free := make(chan []A, 2)
	free <- make([]A, chunk)
	free <- make([]A, chunk)
	// done releases the prefetch goroutine when the consumer returns
	// early on an error.
	done := make(chan struct{})
	defer close(done)
	go func() {
		defer close(fills)
		for start := 0; start < n; start += chunk {
			end := min(start+chunk, n)
			var buf []A
			select {
			case buf = <-free:
			case <-done:
				return
			}
			var sp *obs.Span
			if tr != nil {
				sp = tr.SpanLane(readName, readLane)
			}
			err := src(buf[:end-start], start)
			sp.End()
			select {
			case fills <- filled{buf: buf, start: start, end: end, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return // consumer stops at the error; nothing more to send
			}
		}
	}()

	dec, _ := decPool.Get().(*ScalarDecomposition)
	defer func() {
		if dec != nil {
			decPool.Put(dec)
		}
	}()
	sbuf, _ := scalarChunkPool.Get().(*[]fr.Element)
	if sbuf == nil {
		sbuf = new([]fr.Element)
	}
	*sbuf = grow(*sbuf, chunk)
	defer scalarChunkPool.Put(sbuf)
	for f := range fills {
		if f.err != nil {
			return sum, fmt.Errorf("curve: streamed MSM read at %d: %w", f.start, f.err)
		}
		var sp *obs.Span
		if tr != nil {
			sp = tr.Span(recodeName)
		}
		s := (*sbuf)[:f.end-f.start]
		if err := scalars(s, f.start); err != nil {
			sp.End()
			return sum, fmt.Errorf("curve: streamed MSM scalar read at %d: %w", f.start, err)
		}
		dec = decomposeScalarsInto(dec, s, c)
		sp.End()
		if tr != nil {
			sp = tr.Span(msmName)
		}
		points := f.buf[:f.end-f.start]
		acc := ActiveAccelerator()
		if _, cpu := acc.(pippengerCPU); cpu {
			d.add(points, dec, f.end == n)
		} else {
			part := cv.accelerated(acc, points, dec)
			cv.add(&sum, &part)
		}
		sp.End()
		free <- f.buf
	}
	res := d.finish()
	cv.add(&sum, &res)
	return sum, nil
}

// MultiExpG1StreamScalars computes Σ kᵢ·Pᵢ with the points arriving from
// src in bounded chunks and the scalars recoded chunk by chunk at window
// width c (use StreamWindowSize). The result equals MultiExpG1 on the
// same inputs.
func MultiExpG1StreamScalars(src G1Source, scalars []fr.Element, c, chunk int) (G1Jac, error) {
	return MultiExpG1StreamScalarSourceTraced(src, sliceSource(scalars), len(scalars), c, chunk, nil, "")
}

// MultiExpG2StreamScalars is the G2 counterpart of MultiExpG1StreamScalars.
func MultiExpG2StreamScalars(src G2Source, scalars []fr.Element, c, chunk int) (G2Jac, error) {
	return MultiExpG2StreamScalarSourceTraced(src, sliceSource(scalars), len(scalars), c, chunk, nil, "")
}

// MultiExpG1StreamScalarSourceTraced computes Σ kᵢ·Pᵢ with the points
// arriving from src and the scalars from scalars, both in bounded
// chunks, recording the MSM and its per-chunk read/recode/insert spans
// on tr under label (nil tr is the untraced fast path).
func MultiExpG1StreamScalarSourceTraced(src G1Source, scalars ScalarSource, n, c, chunk int, tr *obs.Trace, label string) (G1Jac, error) {
	return multiExpStream[G1Affine, G1Jac](g1Msm{}, src, scalars, n, c, chunk, tr, label)
}

// MultiExpG2StreamScalarSourceTraced is the G2 counterpart of
// MultiExpG1StreamScalarSourceTraced.
func MultiExpG2StreamScalarSourceTraced(src G2Source, scalars ScalarSource, n, c, chunk int, tr *obs.Trace, label string) (G2Jac, error) {
	return multiExpStream[G2Affine, G2Jac](g2Msm{}, src, scalars, n, c, chunk, tr, label)
}

// StreamWindowSize picks the Pippenger window width for a streamed MSM
// of n total points walked in chunks of the given size. The buckets
// persist across chunks and are reduced once, so the width that
// balances inserts against bucket scans is the total's, whatever the
// chunk size.
func StreamWindowSize(n, chunk int) int {
	return MSMWindowSize(n)
}

// NewG1RawSource returns a G1Source decoding the contiguous run of
// uncompressed (BytesRaw) points that starts at byte offset off in r —
// the layout of one proving-key query section in the raw key encoding.
// Decoding parallelizes across the chunk; the byte buffer is reused
// between calls, so the source must not be shared across goroutines.
func NewG1RawSource(r io.ReaderAt, off int64) G1Source {
	return newRawSource[G1Affine](r, off, G1UncompressedSize)
}

// NewG2RawSource is the G2 counterpart of NewG1RawSource (128-byte
// uncompressed points).
func NewG2RawSource(r io.ReaderAt, off int64) G2Source {
	return newRawSource[G2Affine](r, off, G2UncompressedSize)
}

func newRawSource[A any, PA interface {
	*A
	SetBytesRaw(buf []byte) error
}](r io.ReaderAt, off int64, size int) func(dst []A, start int) error {
	var raw []byte
	return func(dst []A, start int) error {
		raw = grow(raw, len(dst)*size)
		if _, err := r.ReadAt(raw, off+int64(start)*int64(size)); err != nil {
			return err
		}
		// Decode in parallel, keeping the first error observed.
		var mu sync.Mutex
		var firstErr error
		par.Range(len(dst), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if err := PA(&dst[i]).SetBytesRaw(raw[i*size : (i+1)*size]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		})
		return firstErr
	}
}

// sliceSource adapts resident points or scalars to a source.
func sliceSource[T any](vals []T) func(dst []T, start int) error {
	return func(dst []T, start int) error {
		if start < 0 || start+len(dst) > len(vals) {
			return errors.New("curve: slice source read out of range")
		}
		copy(dst, vals[start:start+len(dst)])
		return nil
	}
}

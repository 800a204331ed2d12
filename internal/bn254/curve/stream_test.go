package curve

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"zkrownn/internal/bn254/fr"
)

// streamG1 runs the streamed G1 MSM over resident inputs at the window
// width the prover would pick.
func streamG1(t *testing.T, points []G1Affine, scalars []fr.Element, chunk int) G1Jac {
	t.Helper()
	got, err := MultiExpG1StreamScalars(sliceSource(points), scalars, StreamWindowSize(len(points), chunk), chunk)
	if err != nil {
		t.Fatalf("streamed G1 MSM (n=%d chunk=%d): %v", len(points), chunk, err)
	}
	return got
}

// streamG2 is the G2 counterpart of streamG1.
func streamG2(t *testing.T, points []G2Affine, scalars []fr.Element, chunk int) G2Jac {
	t.Helper()
	got, err := MultiExpG2StreamScalars(sliceSource(points), scalars, StreamWindowSize(len(points), chunk), chunk)
	if err != nil {
		t.Fatalf("streamed G2 MSM (n=%d chunk=%d): %v", len(points), chunk, err)
	}
	return got
}

// msmTestVectorsG2 draws n G2 points from a doubling chain (a ScalarMul
// per point would dominate the test) with ~1/8 infinity points and ~1/5
// repeats, plus msmTestVectors' edge-case scalars.
func msmTestVectorsG2(rng *rand.Rand, n int) ([]G2Affine, []fr.Element) {
	_, scalars := msmTestVectors(rng, n)
	jacs := make([]G2Jac, n)
	cur := randG2(rng)
	for i := range jacs {
		jacs[i] = cur
		cur.DoubleAssign()
	}
	points := BatchJacToAffineG2(jacs)
	for i := range points {
		switch {
		case n > 4 && i%8 == 3:
			points[i] = G2Affine{}
		case n > 4 && i%5 == 4:
			points[i] = points[i-1]
		}
	}
	return points, scalars
}

// naiveMSMG2 is the ScalarMul-sum oracle in G2.
func naiveMSMG2(points []G2Affine, scalars []fr.Element) G2Jac {
	var want G2Jac
	want.SetInfinity()
	for i := range points {
		var pj, term G2Jac
		pj.FromAffine(&points[i])
		term.ScalarMul(&pj, &scalars[i])
		want.AddAssign(&term)
	}
	return want
}

// streamChunks is the chunk sweep of the shared-driver property tests:
// single points, an odd size, either side of the affine threshold, and
// one short of, exactly, and past the whole MSM.
func streamChunks(n int) []int {
	out := []int{1, 7, 511, 512, n, n + 1}
	if n > 1 {
		out = append(out, n-1)
	}
	return out
}

// TestStreamMSMSharedDriverG1 pins the streamed MSM against both the
// in-memory MSM and the naive oracle over the chunk sweep, at sizes
// straddling the MSMWindowSize thresholds (and so the serial, affine
// and window-grouping decisions the total size drives).
func TestStreamMSMSharedDriverG1(t *testing.T) {
	rng := rand.New(rand.NewSource(410))
	sizes := []int{2, 7, 8, 63, 64, 255, 256, 1023, 1024, 1025}
	if !testing.Short() {
		sizes = append(sizes, 4095, 4096)
	}
	for _, n := range sizes {
		points, scalars := msmTestVectors(rng, n)
		want := naiveMSMG1(points, scalars)
		if mem := MultiExpG1(points, scalars); !mem.Equal(&want) {
			t.Fatalf("n=%d: in-memory G1 MSM diverges from the oracle", n)
		}
		for _, chunk := range streamChunks(n) {
			if got := streamG1(t, points, scalars, chunk); !got.Equal(&want) {
				t.Fatalf("n=%d chunk=%d: streamed G1 MSM diverges", n, chunk)
			}
		}
	}
}

// TestStreamMSMSharedDriverG2 is the G2 counterpart of
// TestStreamMSMSharedDriverG1.
func TestStreamMSMSharedDriverG2(t *testing.T) {
	rng := rand.New(rand.NewSource(411))
	sizes := []int{2, 8, 63, 64, 255, 256, 1023, 1024}
	if !testing.Short() {
		sizes = append(sizes, 1025)
	}
	for _, n := range sizes {
		points, scalars := msmTestVectorsG2(rng, n)
		want := naiveMSMG2(points, scalars)
		if mem := MultiExpG2(points, scalars); !mem.Equal(&want) {
			t.Fatalf("n=%d: in-memory G2 MSM diverges from the oracle", n)
		}
		for _, chunk := range streamChunks(n) {
			if got := streamG2(t, points, scalars, chunk); !got.Equal(&want) {
				t.Fatalf("n=%d chunk=%d: streamed G2 MSM diverges", n, chunk)
			}
		}
	}
}

// witnessShapedScalars fills scalars with bit wires and repeated small
// constants — thousands of ops on one low bucket, which overflow the
// conflict queue into the Jacobian side buckets.
func witnessShapedScalars(scalars []fr.Element) {
	for i := range scalars {
		if i%2 == 0 {
			scalars[i].SetOne()
		} else {
			scalars[i].SetUint64(uint64(3 + i%3))
		}
	}
}

// TestStreamMSMSpillBeforeLastChunk drives conflict-queue spills in
// chunks that are not the last, so the sparse Jacobian side buckets
// must persist next to the affine buckets until the one reduction; it
// checks white-box that the first chunk did spill.
func TestStreamMSMSpillBeforeLastChunk(t *testing.T) {
	const n, chunk = 3000, 1024
	rng := rand.New(rand.NewSource(412))
	points, scalars := msmTestVectors(rng, n)
	witnessShapedScalars(scalars[:2*chunk]) // the last chunk keeps random scalars
	c := StreamWindowSize(n, chunk)

	d := newMSMDriver[G1Affine, G1Jac](g1Msm{}, n, c, msmWindows(c), nil, "")
	d.add(points[:chunk], DecomposeScalars(scalars[:chunk], c), false)
	spilled := false
	for _, cell := range d.cells {
		spilled = spilled || (cell.sc != nil && len(cell.sc.side) > 0)
	}
	if !spilled {
		t.Fatal("witness-shaped first chunk did not spill to side buckets")
	}
	d.finish()

	want := naiveMSMG1(points, scalars)
	if got := streamG1(t, points, scalars, chunk); !got.Equal(&want) {
		t.Fatal("streamed G1 MSM with spilling chunks diverges")
	}
	g2, _ := msmTestVectorsG2(rng, n)
	want2 := naiveMSMG2(g2, scalars)
	if got := streamG2(t, g2, scalars, chunk); !got.Equal(&want2) {
		t.Fatal("streamed G2 MSM with spilling chunks diverges")
	}
}

// TestStreamMSMUpperWindowsLater covers chunks whose upper windows are
// all zero next to chunks that use them, in both orders: cells idle in
// early chunks must start their buckets late, and cells idle in the
// last chunk must still reduce what earlier chunks inserted.
func TestStreamMSMUpperWindowsLater(t *testing.T) {
	const n, chunk = 2048, 512
	rng := rand.New(rand.NewSource(413))
	for _, smallFirst := range []bool{true, false} {
		points, scalars := msmTestVectors(rng, n)
		for i := range scalars {
			if (i < n-chunk) == smallFirst {
				scalars[i].SetUint64(uint64(rng.Int63n(1 << 20)))
			}
		}
		want := naiveMSMG1(points, scalars)
		if got := streamG1(t, points, scalars, chunk); !got.Equal(&want) {
			t.Fatalf("smallFirst=%v: streamed G1 MSM diverges", smallFirst)
		}
	}
}

// TestStreamMSMMatchesInMemory drives the chunked driver across sizes
// that straddle every chunk boundary — chunk−1 (single partial chunk),
// chunk (exactly one), chunk+1 (full chunk plus a 1-point tail),
// multiples, and non-powers-of-two — and asserts the streamed sum equals
// the one-shot in-memory MSM on the same witness-shaped inputs.
func TestStreamMSMMatchesInMemory(t *testing.T) {
	const chunk = 64
	rng := rand.New(rand.NewSource(401))
	for _, n := range []int{1, 2, chunk - 1, chunk, chunk + 1, 2*chunk - 1, 2 * chunk, 3*chunk + 17, 333} {
		points, scalars := msmTestVectors(rng, n)
		want := MultiExpG1(points, scalars)
		if got := streamG1(t, points, scalars, chunk); !got.Equal(&want) {
			t.Fatalf("n=%d: streamed G1 MSM diverges from in-memory", n)
		}
	}
}

// TestStreamMSMG2MatchesInMemory mirrors the G1 boundary sweep in G2.
func TestStreamMSMG2MatchesInMemory(t *testing.T) {
	const chunk = 32
	rng := rand.New(rand.NewSource(402))
	for _, n := range []int{chunk - 1, chunk, chunk + 1, 2*chunk + 5, 77} {
		points, scalars := msmTestVectorsG2(rng, n)
		want := MultiExpG2(points, scalars)
		if got := streamG2(t, points, scalars, chunk); !got.Equal(&want) {
			t.Fatalf("n=%d: streamed G2 MSM diverges from in-memory", n)
		}
	}
}

// TestStreamMSMRawSource runs the full disk-shaped path: points encoded
// with BytesRaw into one contiguous section (with a nonzero offset, as
// in a proving-key file), decoded back through NewG1RawSource chunk by
// chunk.
func TestStreamMSMRawSource(t *testing.T) {
	const chunk = 48
	rng := rand.New(rand.NewSource(403))
	n := 3*chunk + 5
	points, scalars := msmTestVectors(rng, n)

	var buf bytes.Buffer
	buf.WriteString("hdr-padding") // non-zero section offset
	off := int64(buf.Len())
	for i := range points {
		b := points[i].BytesRaw()
		buf.Write(b[:])
	}

	want := MultiExpG1(points, scalars)
	got, err := MultiExpG1StreamScalars(NewG1RawSource(bytes.NewReader(buf.Bytes()), off), scalars, StreamWindowSize(n, chunk), chunk)
	if err != nil {
		t.Fatalf("raw-source streamed MSM: %v", err)
	}
	if !got.Equal(&want) {
		t.Fatal("raw-source streamed MSM diverges from in-memory")
	}
}

// TestStreamMSMWindowWidthIndependence checks the linchpin of the
// streamed/in-memory proof identity: the group element is the same no
// matter how the MSM is chunked or which window width recodes the
// scalars, because affine normalization is canonical.
func TestStreamMSMWindowWidthIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	n := 150
	points, scalars := msmTestVectors(rng, n)
	ref := MultiExpG1(points, scalars)

	for _, c := range []int{3, 7, 11} {
		for _, chunk := range []int{16, 64, 1024} {
			got, err := MultiExpG1StreamScalars(sliceSource(points), scalars, c, chunk)
			if err != nil {
				t.Fatalf("c=%d chunk=%d: %v", c, chunk, err)
			}
			if !got.Equal(&ref) {
				t.Fatalf("c=%d chunk=%d: streamed MSM diverges", c, chunk)
			}
		}
	}
}

// TestStreamMSMSourceError checks that a point or scalar source failing
// mid-stream surfaces as an error (wrapped with the failing offset)
// rather than a wrong sum, and that the prefetch goroutine exits.
func TestStreamMSMSourceError(t *testing.T) {
	const n, chunk, failAt = 3000, 512, 1024
	rng := rand.New(rand.NewSource(405))
	points, scalars := msmTestVectors(rng, n)
	c := StreamWindowSize(n, chunk)
	boom := errors.New("disk gone")
	before := runtime.NumGoroutine()

	pointSrc := func(dst []G1Affine, start int) error {
		if start >= failAt {
			return boom
		}
		copy(dst, points[start:start+len(dst)])
		return nil
	}
	if _, err := MultiExpG1StreamScalars(pointSrc, scalars, c, chunk); !errors.Is(err, boom) {
		t.Fatalf("point source: want wrapped source error, got %v", err)
	}
	scalarSrc := func(dst []fr.Element, start int) error {
		if start >= failAt {
			return boom
		}
		copy(dst, scalars[start:start+len(dst)])
		return nil
	}
	if _, err := MultiExpG1StreamScalarSourceTraced(sliceSource(points), scalarSrc, n, c, chunk, nil, ""); !errors.Is(err, boom) {
		t.Fatalf("scalar source: want wrapped source error, got %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before, %d after failed streams:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

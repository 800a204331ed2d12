package curve

import (
	"sync/atomic"
	"testing"

	"zkrownn/internal/bn254/fr"
)

// countingAccelerator wraps the CPU Pippenger backend and counts every
// entry-point hit, proving the public MultiExp functions and the
// streamed drivers actually resolve through the registered backend.
type countingAccelerator struct {
	inner                Accelerator
	g1, g1Dec, g2, g2Dec atomic.Int64
}

func (c *countingAccelerator) Name() string { return "counting(" + c.inner.Name() + ")" }

func (c *countingAccelerator) MultiExpG1(points []G1Affine, scalars []fr.Element) G1Jac {
	c.g1.Add(1)
	return c.inner.MultiExpG1(points, scalars)
}

func (c *countingAccelerator) MultiExpG1Decomposed(points []G1Affine, dec *ScalarDecomposition) G1Jac {
	c.g1Dec.Add(1)
	return c.inner.MultiExpG1Decomposed(points, dec)
}

func (c *countingAccelerator) MultiExpG2(points []G2Affine, scalars []fr.Element) G2Jac {
	c.g2.Add(1)
	return c.inner.MultiExpG2(points, scalars)
}

func (c *countingAccelerator) MultiExpG2Decomposed(points []G2Affine, dec *ScalarDecomposition) G2Jac {
	c.g2Dec.Add(1)
	return c.inner.MultiExpG2Decomposed(points, dec)
}

func testMsmInputs(t *testing.T, n int) ([]G1Affine, []fr.Element) {
	t.Helper()
	points := make([]G1Affine, n)
	scalars := make([]fr.Element, n)
	jac := G1Generator()
	for i := range points {
		points[i].FromJacobian(&jac)
		jac.DoubleAssign()
		scalars[i] = fr.MustRandom()
	}
	return points, scalars
}

func TestAcceleratorDefault(t *testing.T) {
	if got := ActiveAccelerator().Name(); got != "pippenger-cpu" {
		t.Fatalf("default accelerator = %q, want pippenger-cpu", got)
	}
}

func TestAcceleratorRouting(t *testing.T) {
	cnt := &countingAccelerator{inner: pippengerCPU{}}
	SetAccelerator(cnt)
	defer SetAccelerator(nil)

	const n = 256
	points, scalars := testMsmInputs(t, n)

	want := pippengerCPU{}.MultiExpG1(points, scalars)
	got := MultiExpG1(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("MultiExpG1 through accelerator disagrees with CPU backend")
	}
	if cnt.g1.Load() != 1 {
		t.Fatalf("MultiExpG1 hit the accelerator %d times, want 1", cnt.g1.Load())
	}

	dec := DecomposeScalars(scalars, MSMWindowSize(n))
	got = MultiExpG1Decomposed(points, dec)
	if !got.Equal(&want) {
		t.Fatal("MultiExpG1Decomposed through accelerator disagrees")
	}
	if cnt.g1Dec.Load() != 1 {
		t.Fatalf("MultiExpG1Decomposed hit the accelerator %d times, want 1", cnt.g1Dec.Load())
	}

	// The streamed driver dispatches each chunk through the accelerator.
	const chunk = 64
	cnt.g1Dec.Store(0)
	streamed, err := MultiExpG1StreamScalars(sliceSource(points), scalars, StreamWindowSize(n, chunk), chunk)
	if err != nil {
		t.Fatalf("MultiExpG1StreamScalars: %v", err)
	}
	if !streamed.Equal(&want) {
		t.Fatal("streamed MSM through accelerator disagrees")
	}
	if wantChunks := int64(n / chunk); cnt.g1Dec.Load() != wantChunks {
		t.Fatalf("streamed MSM hit the accelerator %d times, want %d", cnt.g1Dec.Load(), wantChunks)
	}

	// Resetting restores the CPU backend.
	SetAccelerator(nil)
	if got := ActiveAccelerator().Name(); got != "pippenger-cpu" {
		t.Fatalf("after reset accelerator = %q, want pippenger-cpu", got)
	}
}

func TestAcceleratorRoutingG2(t *testing.T) {
	cnt := &countingAccelerator{inner: pippengerCPU{}}
	SetAccelerator(cnt)
	defer SetAccelerator(nil)

	const n = 64
	_, scalars := testMsmInputs(t, n)
	points := make([]G2Affine, n)
	jac := G2Generator()
	for i := range points {
		points[i].FromJacobian(&jac)
		jac.DoubleAssign()
	}

	want := pippengerCPU{}.MultiExpG2(points, scalars)
	got := MultiExpG2(points, scalars)
	if !got.Equal(&want) {
		t.Fatal("MultiExpG2 through accelerator disagrees with CPU backend")
	}
	if cnt.g2.Load() != 1 {
		t.Fatalf("MultiExpG2 hit the accelerator %d times, want 1", cnt.g2.Load())
	}

	const chunk = 16
	streamed, err := MultiExpG2StreamScalars(sliceSource(points), scalars, StreamWindowSize(n, chunk), chunk)
	if err != nil {
		t.Fatalf("MultiExpG2StreamScalars: %v", err)
	}
	if !streamed.Equal(&want) {
		t.Fatal("streamed G2 MSM through accelerator disagrees")
	}
	if wantChunks := int64(n / chunk); cnt.g2Dec.Load() != wantChunks {
		t.Fatalf("streamed G2 MSM hit the accelerator %d times, want %d", cnt.g2Dec.Load(), wantChunks)
	}
}

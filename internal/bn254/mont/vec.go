package mont

import "unsafe"

// Slice-level kernels used by the FFT levels, the Groth16 quotient
// loops and the MSM's batch-affine bucket adder. On amd64 with ADX the
// element-wise product dispatches to a single assembly call per vector;
// elsewhere it loops the generic core.

// Vec reinterprets a slice of a typed element (fp.Element, fr.Element)
// as the raw limb slice the kernels take; both share one memory layout.
func Vec[E ~[Limbs]uint64](a []E) [][Limbs]uint64 {
	return unsafe.Slice((*[Limbs]uint64)(unsafe.Pointer(unsafe.SliceData(a))), len(a))
}

// MulVec sets dst[i] = a[i]·b[i] for every i. All three slices must
// have the same length; dst may alias a and/or b element-wise.
func (f *Field) MulVec(dst, a, b [][Limbs]uint64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(f.name + ".MulVecInto: length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	f.mulVec(dst, a, b)
}

// ScalarMulVec sets dst[i] = a[i]·s for every i. dst may alias a.
func (f *Field) ScalarMulVec(dst, a [][Limbs]uint64, s *[Limbs]uint64) {
	if len(a) != len(dst) {
		panic(f.name + ".ScalarMulVecInto: length mismatch")
	}
	a = a[:len(dst)]
	for i := range dst {
		f.mul(&dst[i], &a[i], s)
	}
}

// SubScalarMulVec sets dst[i] = (a[i] − b[i])·s for every i — the
// fused (A·B − C)·Z⁻¹ step of the quotient pipeline. dst may alias a
// and/or b element-wise.
func (f *Field) SubScalarMulVec(dst, a, b [][Limbs]uint64, s *[Limbs]uint64) {
	if len(a) != len(dst) || len(b) != len(dst) {
		panic(f.name + ".SubScalarMulVecInto: length mismatch")
	}
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		var d [Limbs]uint64
		f.Sub(&d, &a[i], &b[i])
		f.mul(&dst[i], &d, s)
	}
}

// Butterfly sets (a, b) = (a+b, a−b) in place — the radix-2 building
// block shared by the tower arithmetic and the FFTs.
func (f *Field) Butterfly(a, b *[Limbs]uint64) {
	t := *a
	f.Add(a, a, b)
	f.Sub(b, &t, b)
}

// ButterflyVec applies Butterfly pairwise: (a[i], b[i]) =
// (a[i]+b[i], a[i]−b[i]). The slices must have equal length and must
// not overlap.
func (f *Field) ButterflyVec(a, b [][Limbs]uint64) {
	if len(a) != len(b) {
		panic(f.name + ".ButterflyVec: length mismatch")
	}
	b = b[:len(a)]
	for i := range a {
		f.Butterfly(&a[i], &b[i])
	}
}

// TwiddleButterflyVec applies the decimation-in-time butterfly with
// per-lane twiddles: t = b[i]·tw[i]; (a[i], b[i]) = (a[i]+t, a[i]−t).
// All slices must have equal length; a and b must not overlap.
func (f *Field) TwiddleButterflyVec(a, b, tw [][Limbs]uint64) {
	if len(a) != len(b) || len(tw) != len(a) {
		panic(f.name + ".TwiddleButterflyVec: length mismatch")
	}
	f.MulVec(b, b, tw)
	f.ButterflyVec(a, b)
}

// BatchInvertInto sets res[i] = 1/a[i] with Montgomery's trick (one
// field inversion plus 3(n−1) multiplications), so hot loops such as
// the MSM's batch-affine bucket adder can reuse one scratch buffer
// across many flushes. res must have len(a) entries; a and res may not
// alias. Zero entries map to zero.
func (f *Field) BatchInvertInto(a, res [][Limbs]uint64) {
	if len(a) != len(res) {
		panic(f.name + ": BatchInvertInto length mismatch")
	}
	if len(a) == 0 {
		return
	}
	var zero [Limbs]uint64
	acc := f.one
	for i := range a {
		if a[i] == zero {
			res[i] = zero
			continue
		}
		res[i] = acc
		f.mul(&acc, &acc, &a[i])
	}
	var accInv [Limbs]uint64
	f.Inverse(&accInv, &acc)
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] == zero {
			continue
		}
		f.mul(&res[i], &res[i], &accInv)
		f.mul(&accInv, &accInv, &a[i])
	}
}

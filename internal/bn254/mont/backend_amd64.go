//go:build amd64 && !purego

package mont

import "zkrownn/internal/cpu"

// supportAdx gates the hand-written MULX/ADX Montgomery kernels; when
// the CPU predates ADX+BMI2 every call falls back to the portable
// generic core. It is a variable rather than a constant so tests can
// exercise the fallback branch on modern hardware.
var supportAdx = cpu.X86HasADX

// MulBackend names the multiplication backend selected at startup:
// "adx" for the MULX/ADCX/ADOX assembly kernels, "generic" for the
// portable CIOS core (pre-ADX CPUs, non-amd64 targets, or any build
// with the purego tag).
func MulBackend() string {
	if supportAdx {
		return "adx"
	}
	return "generic"
}

// Assembly entry points (mul_amd64.s), one pair per field because each
// reads its modulus from global memory. mul computes z = x·y;
// mulVec computes res[i] = a[i]·b[i] for i < n over contiguous arrays,
// with res allowed to alias a and/or b. Both require ADX+BMI2.

//go:noescape
func mulAdxFp(z, x, y *[Limbs]uint64)

//go:noescape
func mulAdxFr(z, x, y *[Limbs]uint64)

//go:noescape
func mulVecAdxFp(res, a, b *[Limbs]uint64, n uint64)

//go:noescape
func mulVecAdxFr(res, a, b *[Limbs]uint64, n uint64)

// MulFp sets z = x·y in F_p (Montgomery product).
func MulFp(z, x, y *[Limbs]uint64) {
	if supportAdx {
		mulAdxFp(z, x, y)
		return
	}
	mulGeneric(&Fp, z, x, y)
}

// MulFr sets z = x·y in F_r (Montgomery product).
func MulFr(z, x, y *[Limbs]uint64) {
	if supportAdx {
		mulAdxFr(z, x, y)
		return
	}
	mulGeneric(&Fr, z, x, y)
}

// SquareFp sets z = x² in F_p. The assembly multiplier keeps every
// operand in registers, so squaring through mul(z, x, x) already beats
// a separate squaring kernel; the fallback uses the dedicated no-carry
// squareGeneric.
func SquareFp(z, x *[Limbs]uint64) {
	if supportAdx {
		mulAdxFp(z, x, x)
		return
	}
	squareGeneric(&Fp, z, x)
}

// SquareFr sets z = x² in F_r; see SquareFp.
func SquareFr(z, x *[Limbs]uint64) {
	if supportAdx {
		mulAdxFr(z, x, x)
		return
	}
	squareGeneric(&Fr, z, x)
}

// mul is the field-generic product the rest of the core uses.
func (f *Field) mul(z, x, y *[Limbs]uint64) {
	switch {
	case !supportAdx:
		mulGeneric(f, z, x, y)
	case f == &Fp:
		mulAdxFp(z, x, y)
	default:
		mulAdxFr(z, x, y)
	}
}

func (f *Field) square(z, x *[Limbs]uint64) {
	switch {
	case !supportAdx:
		squareGeneric(f, z, x)
	case f == &Fp:
		mulAdxFp(z, x, x)
	default:
		mulAdxFr(z, x, x)
	}
}

// mulVec is the non-empty, length-checked body of MulVec.
func (f *Field) mulVec(dst, a, b [][Limbs]uint64) {
	switch {
	case !supportAdx:
		mulVecGeneric(f, dst, a, b)
	case f == &Fp:
		mulVecAdxFp(&dst[0], &a[0], &b[0], uint64(len(dst)))
	default:
		mulVecAdxFr(&dst[0], &a[0], &b[0], uint64(len(dst)))
	}
}

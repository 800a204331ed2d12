package mont

// Portable Montgomery multiplication core, the reference for every
// accelerated backend: the assembly in mul_amd64.s must agree with it
// bit for bit on all inputs (pinned by the FuzzMulBackends differential
// target, which runs both moduli).

import "math/bits"

// madd0 returns the high word of a*b + c.
func madd0(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, carry := bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi
}

// madd1 returns hi, lo = a*b + t.
func madd1(a, b, t uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	lo, carry := bits.Add64(lo, t, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// madd2 returns hi, lo = a*b + c + d.
func madd2(a, b, c, d uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	c, carry := bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return hi, lo
}

// madd3 returns hi, lo = a*b + c + d + e<<64.
func madd3(a, b, c, d, e uint64) (uint64, uint64) {
	hi, lo := bits.Mul64(a, b)
	c, carry := bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, e, carry)
	return hi, lo
}

// mulGeneric sets z = x·y mod q (Montgomery product) with the CIOS
// algorithm; the "no-carry" shortcut applies because the top limb of
// the modulus is below 2⁶². Safe for z aliasing x and/or y: the final
// round writes each z limb only after its last read of x and y.
func mulGeneric(f *Field, z, x, y *[Limbs]uint64) {
	var t [4]uint64
	var c [3]uint64
	{
		v := x[0]
		c[1], c[0] = bits.Mul64(v, y[0])
		m := c[0] * f.qInvNeg
		c[2] = madd0(m, f.q[0], c[0])
		c[1], c[0] = madd1(v, y[1], c[1])
		c[2], t[0] = madd2(m, f.q[1], c[2], c[0])
		c[1], c[0] = madd1(v, y[2], c[1])
		c[2], t[1] = madd2(m, f.q[2], c[2], c[0])
		c[1], c[0] = madd1(v, y[3], c[1])
		t[3], t[2] = madd3(m, f.q[3], c[0], c[2], c[1])
	}
	{
		v := x[1]
		c[1], c[0] = madd1(v, y[0], t[0])
		m := c[0] * f.qInvNeg
		c[2] = madd0(m, f.q[0], c[0])
		c[1], c[0] = madd2(v, y[1], c[1], t[1])
		c[2], t[0] = madd2(m, f.q[1], c[2], c[0])
		c[1], c[0] = madd2(v, y[2], c[1], t[2])
		c[2], t[1] = madd2(m, f.q[2], c[2], c[0])
		c[1], c[0] = madd2(v, y[3], c[1], t[3])
		t[3], t[2] = madd3(m, f.q[3], c[0], c[2], c[1])
	}
	{
		v := x[2]
		c[1], c[0] = madd1(v, y[0], t[0])
		m := c[0] * f.qInvNeg
		c[2] = madd0(m, f.q[0], c[0])
		c[1], c[0] = madd2(v, y[1], c[1], t[1])
		c[2], t[0] = madd2(m, f.q[1], c[2], c[0])
		c[1], c[0] = madd2(v, y[2], c[1], t[2])
		c[2], t[1] = madd2(m, f.q[2], c[2], c[0])
		c[1], c[0] = madd2(v, y[3], c[1], t[3])
		t[3], t[2] = madd3(m, f.q[3], c[0], c[2], c[1])
	}
	{
		v := x[3]
		c[1], c[0] = madd1(v, y[0], t[0])
		m := c[0] * f.qInvNeg
		c[2] = madd0(m, f.q[0], c[0])
		c[1], c[0] = madd2(v, y[1], c[1], t[1])
		c[2], z[0] = madd2(m, f.q[1], c[2], c[0])
		c[1], c[0] = madd2(v, y[2], c[1], t[2])
		c[2], z[1] = madd2(m, f.q[2], c[2], c[0])
		c[1], c[0] = madd2(v, y[3], c[1], t[3])
		z[3], z[2] = madd3(m, f.q[3], c[0], c[2], c[1])
	}
	if !f.smallerThanModulus(z) {
		var b uint64
		z[0], b = bits.Sub64(z[0], f.q[0], 0)
		z[1], b = bits.Sub64(z[1], f.q[1], b)
		z[2], b = bits.Sub64(z[2], f.q[2], b)
		z[3], _ = bits.Sub64(z[3], f.q[3], b)
	}
}

// squareGeneric sets z = x² mod q with a dedicated no-carry squaring:
// the 512-bit square needs only the 10 distinct limb products (the 6
// cross products are doubled by shifts) instead of the 16 a general
// product scans, and is then folded by four standard REDC rounds.
// Inputs must be reduced (< q), which every exported constructor
// guarantees; the overflow analysis in the comments uses q[3] < 2⁶²,
// true for both BN254 fields.
func squareGeneric(f *Field, z, x *[Limbs]uint64) {
	var t [8]uint64
	var hi, lo, carry uint64

	// Off-diagonal products Σ_{i<j} x[i]·x[j]·2^(64(i+j)).
	hi, lo = bits.Mul64(x[0], x[1])
	t[1] = lo
	t[2] = hi
	hi, lo = bits.Mul64(x[0], x[2])
	t[2], carry = bits.Add64(t[2], lo, 0)
	t[3] = hi + carry // hi ≤ 2⁶⁴-2: cannot overflow
	hi, lo = bits.Mul64(x[0], x[3])
	t[3], carry = bits.Add64(t[3], lo, 0)
	t[4] = hi + carry

	hi, lo = bits.Mul64(x[1], x[2])
	t[3], carry = bits.Add64(t[3], lo, 0)
	t[4], carry = bits.Add64(t[4], hi, carry)
	t[5] = carry
	hi, lo = bits.Mul64(x[1], x[3])
	t[4], carry = bits.Add64(t[4], lo, 0)
	t[5] += hi + carry // hi < 2⁶² (x[3] < 2⁶²): cannot overflow

	hi, lo = bits.Mul64(x[2], x[3])
	t[5], carry = bits.Add64(t[5], lo, 0)
	t[6] = hi + carry

	// Double the cross products: x² = Σ x[i]²·2^(128i) + 2·cross.
	t[7] = t[6] >> 63
	t[6] = t[6]<<1 | t[5]>>63
	t[5] = t[5]<<1 | t[4]>>63
	t[4] = t[4]<<1 | t[3]>>63
	t[3] = t[3]<<1 | t[2]>>63
	t[2] = t[2]<<1 | t[1]>>63
	t[1] = t[1] << 1

	// Add the diagonal x[i]² terms.
	hi, lo = bits.Mul64(x[0], x[0])
	t[0] = lo
	t[1], carry = bits.Add64(t[1], hi, 0)
	hi, lo = bits.Mul64(x[1], x[1])
	t[2], carry = bits.Add64(t[2], lo, carry)
	t[3], carry = bits.Add64(t[3], hi, carry)
	hi, lo = bits.Mul64(x[2], x[2])
	t[4], carry = bits.Add64(t[4], lo, carry)
	t[5], carry = bits.Add64(t[5], hi, carry)
	hi, lo = bits.Mul64(x[3], x[3])
	t[6], carry = bits.Add64(t[6], lo, carry)
	t[7], _ = bits.Add64(t[7], hi, carry)

	// Four REDC rounds fold t down to four limbs. The exact value
	// x² + Σᵢ mᵢ·q·2^(64i) stays below 2⁵¹² (x² < 2⁵⁰⁸, Σ mᵢ·2^(64i)·q
	// < 2²⁵⁶·p < 2⁵¹⁰), so the ripple past each round's m·q high word
	// never carries out of t[7].
	var c uint64
	m := t[0] * f.qInvNeg
	c = madd0(m, f.q[0], t[0])
	c, t[1] = madd2(m, f.q[1], t[1], c)
	c, t[2] = madd2(m, f.q[2], t[2], c)
	c, t[3] = madd2(m, f.q[3], t[3], c)
	t[4], carry = bits.Add64(t[4], c, 0)
	t[5], carry = bits.Add64(t[5], 0, carry)
	t[6], carry = bits.Add64(t[6], 0, carry)
	t[7], _ = bits.Add64(t[7], 0, carry)

	m = t[1] * f.qInvNeg
	c = madd0(m, f.q[0], t[1])
	c, t[2] = madd2(m, f.q[1], t[2], c)
	c, t[3] = madd2(m, f.q[2], t[3], c)
	c, t[4] = madd2(m, f.q[3], t[4], c)
	t[5], carry = bits.Add64(t[5], c, 0)
	t[6], carry = bits.Add64(t[6], 0, carry)
	t[7], _ = bits.Add64(t[7], 0, carry)

	m = t[2] * f.qInvNeg
	c = madd0(m, f.q[0], t[2])
	c, t[3] = madd2(m, f.q[1], t[3], c)
	c, t[4] = madd2(m, f.q[2], t[4], c)
	c, t[5] = madd2(m, f.q[3], t[5], c)
	t[6], carry = bits.Add64(t[6], c, 0)
	t[7], _ = bits.Add64(t[7], 0, carry)

	m = t[3] * f.qInvNeg
	c = madd0(m, f.q[0], t[3])
	c, t[4] = madd2(m, f.q[1], t[4], c)
	c, t[5] = madd2(m, f.q[2], t[5], c)
	c, t[6] = madd2(m, f.q[3], t[6], c)
	t[7], _ = bits.Add64(t[7], c, 0)

	// The reduced value is below (q² + 2²⁵⁶·q)/2²⁵⁶ < 2q, so one
	// conditional subtraction restores canonical form.
	z[0], z[1], z[2], z[3] = t[4], t[5], t[6], t[7]
	if !f.smallerThanModulus(z) {
		var b uint64
		z[0], b = bits.Sub64(z[0], f.q[0], 0)
		z[1], b = bits.Sub64(z[1], f.q[1], b)
		z[2], b = bits.Sub64(z[2], f.q[2], b)
		z[3], _ = bits.Sub64(z[3], f.q[3], b)
	}
}

// mulVecGeneric is the portable element-wise product kernel behind
// Field.MulVec. Lengths are validated by the caller.
func mulVecGeneric(f *Field, dst, a, b [][Limbs]uint64) {
	a = a[:len(dst)]
	b = b[:len(dst)]
	for i := range dst {
		mulGeneric(f, &dst[i], &a[i], &b[i])
	}
}

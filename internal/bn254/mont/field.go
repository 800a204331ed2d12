// Package mont is the Montgomery arithmetic core behind both BN254
// prime fields: the base field F_p (package fp) and the scalar field F_r
// (package fr). Both moduli are 254-bit primes, so one set of routines
// over four 64-bit little-endian limbs serves both; a Field value holds
// one modulus as data, and fp and fr wrap it in their own typed
// Element so the two fields can never be mixed up at compile time.
//
// Every derived constant (R, R², R³, −q⁻¹ mod 2⁶⁴, exponents) is
// computed at init from the decimal modulus string rather than
// hard-coded, which keeps the implementation auditable.
//
// Multiplication has two backends: the portable CIOS core in
// mul_generic.go (the reference) and the MULX/ADX assembly in
// mul_amd64.s, selected at startup by MulBackend's CPU check. The
// assembly reads each field's modulus from global memory, so it has
// one entry point per field; MulFp/SquareFp and MulFr/SquareFr are the
// entry points the typed wrappers call.
package mont

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"math/bits"
)

// Limbs is the number of 64-bit words in an element.
const Limbs = 4

// Bits is the size of both moduli in bits.
const Bits = 254

// Bytes is the size of a serialized element.
const Bytes = 32

// The two BN254 (alt_bn128) moduli.
const (
	// PModulus is the base-field prime p underlying the curve's
	// coordinates.
	PModulus = "21888242871839275222246405745257275088696311157297823662689037894645226208583"
	// RModulus is the scalar-field prime r, the order of the pairing
	// groups.
	RModulus = "21888242871839275222246405745257275088548364400416034343698204186575808495617"
)

// Field is one 254-bit prime field in Montgomery form: the integer a is
// stored as a·R mod q with R = 2²⁵⁶. Methods take raw limb pointers;
// outputs may alias inputs unless a method says otherwise.
type Field struct {
	// q and qInvNeg lead the struct: mul_amd64.s reads the modulus
	// limbs at offsets 0–24 of ·Fp/·Fr and −q⁻¹ mod 2⁶⁴ at offset 32.
	q       [Limbs]uint64
	qInvNeg uint64

	one     [Limbs]uint64 // Montgomery form of 1 (R mod q)
	rSquare [Limbs]uint64 // R² mod q, converts into Montgomery form
	rCube   [Limbs]uint64 // R³ mod q, converts binary-GCD inverses back to Montgomery form

	modulus    big.Int
	sqrtExp    big.Int // (q+1)/4 when q ≡ 3 mod 4 (the square-root exponent), else 0
	qHalfPlus1 big.Int // (q+1)/2, threshold of the lexicographic "sign"
	name       string  // package name used in panics and errors
}

// Fp and Fr are the BN254 base and scalar fields.
var Fp, Fr Field

func init() {
	Fp.init("fp", PModulus)
	Fr.init("fr", RModulus)
}

func (f *Field) init(name, modulus string) {
	f.name = name
	if _, ok := f.modulus.SetString(modulus, 10); !ok {
		panic(name + ": invalid modulus string")
	}
	fillLimbs(&f.modulus, &f.q, name)

	// qInvNeg = −q⁻¹ mod 2⁶⁴.
	word := new(big.Int).Lsh(big.NewInt(1), 64)
	var qInv big.Int
	if qInv.ModInverse(&f.modulus, word) == nil {
		panic(name + ": modulus not invertible mod 2⁶⁴")
	}
	qInv.Neg(&qInv).Mod(&qInv, word)
	f.qInvNeg = qInv.Uint64()

	// R = 2²⁵⁶ mod q, R² and R³ mod q.
	r := new(big.Int).Lsh(big.NewInt(1), 256)
	r.Mod(r, &f.modulus)
	r2 := new(big.Int).Mul(r, r)
	r2.Mod(r2, &f.modulus)
	r3 := new(big.Int).Mul(r2, r)
	r3.Mod(r3, &f.modulus)
	fillLimbs(r, &f.one, name)
	fillLimbs(r2, &f.rSquare, name)
	fillLimbs(r3, &f.rCube, name)

	if f.modulus.Bit(0) == 1 && f.modulus.Bit(1) == 1 {
		f.sqrtExp.Add(&f.modulus, big.NewInt(1))
		f.sqrtExp.Rsh(&f.sqrtExp, 2)
	}
	f.qHalfPlus1.Add(&f.modulus, big.NewInt(1))
	f.qHalfPlus1.Rsh(&f.qHalfPlus1, 1)
}

// fillLimbs writes the little-endian 64-bit limbs of v (assumed < 2²⁵⁶)
// into out.
func fillLimbs(v *big.Int, out *[Limbs]uint64, name string) {
	if v.Sign() < 0 || v.BitLen() > 64*Limbs {
		panic(name + ": value does not fit in 4 limbs")
	}
	var buf [Bytes]byte
	v.FillBytes(buf[:])
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[Bytes-8*(i+1):])
	}
}

// Modulus returns a copy of the field modulus.
func (f *Field) Modulus() *big.Int { return new(big.Int).Set(&f.modulus) }

// SetOne sets z to 1.
func (f *Field) SetOne(z *[Limbs]uint64) { *z = f.one }

// IsOne reports whether z == 1.
func (f *Field) IsOne(z *[Limbs]uint64) bool { return *z == f.one }

// SetUint64 sets z to v.
func (f *Field) SetUint64(z *[Limbs]uint64, v uint64) {
	*z = [Limbs]uint64{v}
	f.mul(z, z, &f.rSquare)
}

// SetBigInt sets z to v mod q.
func (f *Field) SetBigInt(z *[Limbs]uint64, v *big.Int) {
	var t big.Int
	t.Mod(v, &f.modulus)
	fillLimbs(&t, z, f.name)
	f.mul(z, z, &f.rSquare)
}

// SetString sets z to the value of the decimal (or 0x-prefixed hex)
// string s, reduced mod q.
func (f *Field) SetString(z *[Limbs]uint64, s string) error {
	v, ok := new(big.Int).SetString(s, 0)
	if !ok {
		return errors.New(f.name + ": invalid number literal " + s)
	}
	f.SetBigInt(z, v)
	return nil
}

// SetBytes sets z from a big-endian byte slice, interpreted mod q.
func (f *Field) SetBytes(z *[Limbs]uint64, b []byte) {
	var v big.Int
	v.SetBytes(b)
	f.SetBigInt(z, &v)
}

// SetBytesCanonical sets z from exactly 32 big-endian bytes, requiring
// the value to be a canonical (< q) encoding. z is untouched on error.
func (f *Field) SetBytesCanonical(z *[Limbs]uint64, b []byte) error {
	if len(b) != Bytes {
		return errors.New(f.name + ": invalid encoding length")
	}
	var t [Limbs]uint64
	for i := range t {
		t[i] = binary.BigEndian.Uint64(b[Bytes-8*(i+1):])
	}
	if !f.smallerThanModulus(&t) {
		return errors.New(f.name + ": encoding is not canonical")
	}
	f.mul(z, &t, &f.rSquare)
	return nil
}

// Regular returns the canonical (non-Montgomery) limbs of z.
func (f *Field) Regular(z *[Limbs]uint64) [Limbs]uint64 {
	// A Montgomery product with the plain integer 1 divides by R.
	t := [Limbs]uint64{1}
	f.mul(&t, z, &t)
	return t
}

// Bit returns bit i of the canonical value of z (0 outside [0, 256)).
func (f *Field) Bit(z *[Limbs]uint64, i int) uint64 {
	if i < 0 || i >= Limbs*64 {
		return 0
	}
	l := f.Regular(z)
	return (l[i/64] >> (i % 64)) & 1
}

// BigInt writes the canonical value of z into res and returns res.
func (f *Field) BigInt(z *[Limbs]uint64, res *big.Int) *big.Int {
	b := f.Bytes(z)
	return res.SetBytes(b[:])
}

// Bytes returns the canonical big-endian encoding of z.
func (f *Field) Bytes(z *[Limbs]uint64) [Bytes]byte {
	t := f.Regular(z)
	var out [Bytes]byte
	for i, w := range t {
		binary.BigEndian.PutUint64(out[Bytes-8*(i+1):], w)
	}
	return out
}

// String returns the decimal representation of z.
func (f *Field) String(z *[Limbs]uint64) string { return f.BigInt(z, new(big.Int)).String() }

// Cmp compares the canonical values of x and y, returning -1, 0 or 1.
func (f *Field) Cmp(x, y *[Limbs]uint64) int {
	a, b := f.Regular(x), f.Regular(y)
	for i := Limbs - 1; i >= 0; i-- {
		if a[i] < b[i] {
			return -1
		}
		if a[i] > b[i] {
			return 1
		}
	}
	return 0
}

// LexicographicallyLargest reports whether the canonical value of z is
// strictly greater than (q−1)/2, the "sign" bit of compressed point
// encodings.
func (f *Field) LexicographicallyLargest(z *[Limbs]uint64) bool {
	return f.BigInt(z, new(big.Int)).Cmp(&f.qHalfPlus1) >= 0
}

// smallerThanModulus reports whether the raw limbs z are < q.
func (f *Field) smallerThanModulus(z *[Limbs]uint64) bool {
	q := &f.q // one nil check of f, not one per limb
	for i := Limbs - 1; i >= 0; i-- {
		if z[i] < q[i] {
			return true
		}
		if z[i] > q[i] {
			return false
		}
	}
	return false // equal
}

// Add sets z = x + y mod q.
func (f *Field) Add(z, x, y *[Limbs]uint64) {
	var carry uint64
	z[0], carry = bits.Add64(x[0], y[0], 0)
	z[1], carry = bits.Add64(x[1], y[1], carry)
	z[2], carry = bits.Add64(x[2], y[2], carry)
	z[3], _ = bits.Add64(x[3], y[3], carry)
	if !f.smallerThanModulus(z) {
		var b uint64
		z[0], b = bits.Sub64(z[0], f.q[0], 0)
		z[1], b = bits.Sub64(z[1], f.q[1], b)
		z[2], b = bits.Sub64(z[2], f.q[2], b)
		z[3], _ = bits.Sub64(z[3], f.q[3], b)
	}
}

// Sub sets z = x − y mod q.
func (f *Field) Sub(z, x, y *[Limbs]uint64) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	if b != 0 {
		var c uint64
		z[0], c = bits.Add64(z[0], f.q[0], 0)
		z[1], c = bits.Add64(z[1], f.q[1], c)
		z[2], c = bits.Add64(z[2], f.q[2], c)
		z[3], _ = bits.Add64(z[3], f.q[3], c)
	}
}

// Neg sets z = −x mod q.
func (f *Field) Neg(z, x *[Limbs]uint64) {
	if *x == ([Limbs]uint64{}) {
		*z = [Limbs]uint64{}
		return
	}
	var b uint64
	z[0], b = bits.Sub64(f.q[0], x[0], 0)
	z[1], b = bits.Sub64(f.q[1], x[1], b)
	z[2], b = bits.Sub64(f.q[2], x[2], b)
	z[3], _ = bits.Sub64(f.q[3], x[3], b)
}

// Select sets z = a if cond == 0, else z = b.
func Select(z *[Limbs]uint64, cond int, a, b *[Limbs]uint64) {
	if cond == 0 {
		*z = *a
		return
	}
	*z = *b
}

// Exp sets z = x^k mod q for a non-negative exponent k.
func (f *Field) Exp(z, x *[Limbs]uint64, k *big.Int) {
	if k.Sign() < 0 {
		panic(f.name + ": negative exponent")
	}
	res := f.one
	base := *x
	for i := k.BitLen() - 1; i >= 0; i-- {
		f.square(&res, &res)
		if k.Bit(i) == 1 {
			f.mul(&res, &res, &base)
		}
	}
	*z = res
}

// Sqrt sets z to a square root of x and reports true, or reports false
// (leaving z untouched) when x is a non-residue. It uses the
// q ≡ 3 mod 4 shortcut x^((q+1)/4) and panics for other moduli.
func (f *Field) Sqrt(z, x *[Limbs]uint64) bool {
	if f.sqrtExp.Sign() == 0 {
		panic(f.name + ": Sqrt needs a modulus ≡ 3 mod 4")
	}
	var cand, check [Limbs]uint64
	f.Exp(&cand, x, &f.sqrtExp)
	f.square(&check, &cand)
	if check != *x {
		return false
	}
	*z = cand
	return true
}

// Inverse sets z = 1/x mod q, or 0 when x == 0.
//
// It runs the binary extended Euclidean algorithm on the raw Montgomery
// representative: for x storing a·R, the GCD yields (a·R)⁻¹ = a⁻¹·R⁻¹,
// and one Montgomery multiplication by R³ restores Montgomery form
// (a⁻¹·R). This is ~4× faster than Fermat exponentiation (x^(q−2), the
// oracle the field tests check it against), and inversions sit on hot
// paths: batch-invert flushes in the MSM, affine Miller-loop steps and
// Jacobian-to-affine conversion.
func (f *Field) Inverse(z, x *[Limbs]uint64) {
	if *x == ([Limbs]uint64{}) {
		*z = [Limbs]uint64{}
		return
	}
	u := *x // the raw representative a·R mod q, non-zero, < q
	v := f.q
	x1 := [Limbs]uint64{1} // plain integer accumulators mod q, not Montgomery
	var x2 [Limbs]uint64
	// Invariants: x1·(a·R) ≡ u and x2·(a·R) ≡ v (mod q).
	for !limbsAreOne(&u) && !limbsAreOne(&v) {
		for u[0]&1 == 0 {
			limbsShiftRight1(&u, 0)
			f.halveAccumulator(&x1)
		}
		for v[0]&1 == 0 {
			limbsShiftRight1(&v, 0)
			f.halveAccumulator(&x2)
		}
		if limbsGeq(&u, &v) {
			limbsSub(&u, &v)
			f.Sub(&x1, &x1, &x2)
		} else {
			limbsSub(&v, &u)
			f.Sub(&x2, &x2, &x1)
		}
	}
	if limbsAreOne(&u) {
		*z = x1
	} else {
		*z = x2
	}
	// z now holds (a·R)⁻¹ = a⁻¹·R⁻¹ as a plain integer; Montgomery
	// multiplication by R³ yields a⁻¹·R⁻¹·R³·R⁻¹ = a⁻¹·R.
	f.mul(z, z, &f.rCube)
}

// limbsAreOne reports whether a holds the integer 1.
func limbsAreOne(a *[Limbs]uint64) bool {
	return a[0] == 1 && a[1]|a[2]|a[3] == 0
}

// limbsGeq reports whether a >= b as integers.
func limbsGeq(a, b *[Limbs]uint64) bool {
	for i := Limbs - 1; i >= 0; i-- {
		if a[i] > b[i] {
			return true
		}
		if a[i] < b[i] {
			return false
		}
	}
	return true
}

// limbsSub sets a −= b (caller guarantees a >= b).
func limbsSub(a, b *[Limbs]uint64) {
	var bw uint64
	a[0], bw = bits.Sub64(a[0], b[0], 0)
	a[1], bw = bits.Sub64(a[1], b[1], bw)
	a[2], bw = bits.Sub64(a[2], b[2], bw)
	a[3], _ = bits.Sub64(a[3], b[3], bw)
}

// limbsShiftRight1 sets a = (a + hi·2²⁵⁶) >> 1.
func limbsShiftRight1(a *[Limbs]uint64, hi uint64) {
	a[0] = a[0]>>1 | a[1]<<63
	a[1] = a[1]>>1 | a[2]<<63
	a[2] = a[2]>>1 | a[3]<<63
	a[3] = a[3]>>1 | hi<<63
}

// halveAccumulator sets x = x/2 mod q for the GCD's Bezout
// accumulators: even values shift, odd values first add q (the sum can
// carry past 2²⁵⁶, tracked in the shift's high bit).
func (f *Field) halveAccumulator(x *[Limbs]uint64) {
	if x[0]&1 == 0 {
		limbsShiftRight1(x, 0)
		return
	}
	var carry uint64
	x[0], carry = bits.Add64(x[0], f.q[0], 0)
	x[1], carry = bits.Add64(x[1], f.q[1], carry)
	x[2], carry = bits.Add64(x[2], f.q[2], carry)
	x[3], carry = bits.Add64(x[3], f.q[3], carry)
	limbsShiftRight1(x, carry)
}

// SetRandom sets z to a uniformly random element read from rng
// (crypto/rand.Reader when nil) with crypto/rand.Int over the modulus,
// so seeded readers give reproducible elements. z is untouched on error.
func (f *Field) SetRandom(z *[Limbs]uint64, rng io.Reader) error {
	if rng == nil {
		rng = rand.Reader
	}
	v, err := rand.Int(rng, &f.modulus)
	if err != nil {
		return err
	}
	f.SetBigInt(z, v)
	return nil
}

// MustRandom returns a uniformly random element from crypto/rand,
// panicking on RNG failure.
func (f *Field) MustRandom() [Limbs]uint64 {
	var z [Limbs]uint64
	if err := f.SetRandom(&z, nil); err != nil {
		panic(err)
	}
	return z
}

// Package fr implements arithmetic in the BN254 scalar field F_r, where
//
//	r = 21888242871839275222246405745257275088548364400416034343698204186575808495617
//
// is the prime order of the alt_bn128 (BN128/BN254) pairing groups.
// F_r is the field of circuit wires, witnesses and polynomial
// coefficients in the Groth16 proof system; it has two-adicity 28, which
// enables radix-2 FFTs over evaluation domains of size up to 2^28.
//
// Element is a typed wrapper over the shared Montgomery core in package
// mont (mont.Fr): every method is a one-line call into it, so fr and fp
// run the same multiply, assembly, inversion and encoding code while
// their element types stay distinct.
package fr

import (
	"fmt"
	"io"
	"math/big"

	"zkrownn/internal/bn254/mont"
)

// Limbs is the number of 64-bit words in an element.
const Limbs = mont.Limbs

// Bits is the size of the modulus in bits.
const Bits = mont.Bits

// Bytes is the size of a serialized element.
const Bytes = mont.Bytes

// ModulusStr is the decimal representation of the field modulus.
const ModulusStr = mont.RModulus

// Element is a field element in Montgomery form: the integer a is stored
// as a·R mod r with R = 2²⁵⁶. The zero value is the field's zero.
type Element [Limbs]uint64

// l exposes the limbs of an element to the core.
func l(z *Element) *[Limbs]uint64 { return (*[Limbs]uint64)(z) }

// Modulus returns a copy of the field modulus as a big.Int.
func Modulus() *big.Int { return mont.Fr.Modulus() }

// MulBackend names the multiplication backend selected at startup:
// "adx" for the MULX/ADCX/ADOX assembly, "generic" for the portable core.
func MulBackend() string { return mont.MulBackend() }

// NewElement returns an element set to the given uint64 value.
func NewElement(v uint64) Element {
	var e Element
	e.SetUint64(v)
	return e
}

// MustRandom returns a uniformly random element, panicking on RNG
// failure. Intended for tests and key generation.
func MustRandom() Element { return Element(mont.Fr.MustRandom()) }

// SetZero sets z to 0 and returns z.
func (z *Element) SetZero() *Element { *z = Element{}; return z }

// SetOne sets z to 1 and returns z.
func (z *Element) SetOne() *Element { mont.Fr.SetOne(l(z)); return z }

// Set copies x into z and returns z.
func (z *Element) Set(x *Element) *Element { *z = *x; return z }

// SetUint64 sets z to v and returns z.
func (z *Element) SetUint64(v uint64) *Element { mont.Fr.SetUint64(l(z), v); return z }

// SetInt64 sets z to v (which may be negative) and returns z.
func (z *Element) SetInt64(v int64) *Element {
	if v >= 0 {
		return z.SetUint64(uint64(v))
	}
	z.SetUint64(uint64(-v))
	return z.Neg(z)
}

// SetBigInt sets z to v mod r and returns z.
func (z *Element) SetBigInt(v *big.Int) *Element { mont.Fr.SetBigInt(l(z), v); return z }

// SetString sets z to the value of the decimal (or 0x-prefixed hex)
// string s, reduced mod r.
func (z *Element) SetString(s string) (*Element, error) {
	if err := mont.Fr.SetString(l(z), s); err != nil {
		return nil, err
	}
	return z, nil
}

// SetRandom sets z to a uniformly random field element read from rng
// (crypto/rand.Reader when rng is nil) and returns z.
func (z *Element) SetRandom(rng io.Reader) (*Element, error) {
	if err := mont.Fr.SetRandom(l(z), rng); err != nil {
		return nil, err
	}
	return z, nil
}

// SetBytes sets z from a big-endian byte slice (interpreted mod r) and
// returns z.
func (z *Element) SetBytes(b []byte) *Element { mont.Fr.SetBytes(l(z), b); return z }

// SetBytesCanonical sets z from exactly 32 big-endian bytes, requiring
// the value to be a canonical (< r) encoding.
func (z *Element) SetBytesCanonical(b []byte) error { return mont.Fr.SetBytesCanonical(l(z), b) }

// Bytes returns the canonical big-endian 32-byte encoding of z.
func (z *Element) Bytes() [Bytes]byte { return mont.Fr.Bytes(l(z)) }

// BigInt writes the canonical (non-Montgomery) value of z into res and
// returns res.
func (z *Element) BigInt(res *big.Int) *big.Int { return mont.Fr.BigInt(l(z), res) }

// ToBigInt returns the canonical value of z as a fresh big.Int.
func (z *Element) ToBigInt() *big.Int { return z.BigInt(new(big.Int)) }

// RegularLimbs returns the canonical (non-Montgomery) little-endian
// 64-bit limbs of z.
func (z *Element) RegularLimbs() [Limbs]uint64 { return mont.Fr.Regular(l(z)) }

// Bit returns bit i of the canonical value of z.
func (z *Element) Bit(i int) uint64 { return mont.Fr.Bit(l(z), i) }

// String returns the decimal representation of z.
func (z Element) String() string { return mont.Fr.String(l(&z)) }

// Format implements fmt.Formatter for %v/%s/%d.
func (z Element) Format(s fmt.State, verb rune) { fmt.Fprint(s, z.String()) }

// IsZero reports whether z == 0.
func (z *Element) IsZero() bool { return z[0]|z[1]|z[2]|z[3] == 0 }

// IsOne reports whether z == 1.
func (z *Element) IsOne() bool { return mont.Fr.IsOne(l(z)) }

// Equal reports whether z == x.
func (z *Element) Equal(x *Element) bool { return *z == *x }

// Cmp compares the canonical values of z and x, returning -1, 0, or 1.
func (z *Element) Cmp(x *Element) int { return mont.Fr.Cmp(l(z), l(x)) }

// LexicographicallyLargest reports whether the canonical value of z is
// strictly greater than (r-1)/2. Used as the "sign" bit in compressed
// point encodings.
func (z *Element) LexicographicallyLargest() bool { return mont.Fr.LexicographicallyLargest(l(z)) }

// Add sets z = x + y mod r and returns z.
func (z *Element) Add(x, y *Element) *Element { mont.Fr.Add(l(z), l(x), l(y)); return z }

// Double sets z = 2x mod r and returns z.
func (z *Element) Double(x *Element) *Element { mont.Fr.Add(l(z), l(x), l(x)); return z }

// Sub sets z = x - y mod r and returns z.
func (z *Element) Sub(x, y *Element) *Element { mont.Fr.Sub(l(z), l(x), l(y)); return z }

// Neg sets z = -x mod r and returns z.
func (z *Element) Neg(x *Element) *Element { mont.Fr.Neg(l(z), l(x)); return z }

// Mul sets z = x·y mod r (Montgomery product) and returns z.
func (z *Element) Mul(x, y *Element) *Element { mont.MulFr(l(z), l(x), l(y)); return z }

// Square sets z = x² mod r and returns z.
func (z *Element) Square(x *Element) *Element { mont.SquareFr(l(z), l(x)); return z }

// Exp sets z = x^k mod r for a non-negative big.Int exponent and returns z.
func (z *Element) Exp(x *Element, k *big.Int) *Element { mont.Fr.Exp(l(z), l(x), k); return z }

// Inverse sets z = 1/x mod r (or 0 when x == 0) and returns z.
func (z *Element) Inverse(x *Element) *Element { mont.Fr.Inverse(l(z), l(x)); return z }

// Select sets z = a if cond == 0, else z = b, and returns z.
func (z *Element) Select(cond int, a, b *Element) *Element {
	mont.Select(l(z), cond, l(a), l(b))
	return z
}

// BatchInvert computes the inverses of all elements in a using Montgomery's
// trick (a single field inversion plus 3(n-1) multiplications). Zero
// entries are mapped to zero.
func BatchInvert(a []Element) []Element {
	res := make([]Element, len(a))
	mont.Fr.BatchInvertInto(mont.Vec(a), mont.Vec(res))
	return res
}

// MulVecInto sets dst[i] = a[i]·b[i] for every i. All three slices must
// have the same length; dst may alias a and/or b element-wise.
func MulVecInto(dst, a, b []Element) { mont.Fr.MulVec(mont.Vec(dst), mont.Vec(a), mont.Vec(b)) }

// ScalarMulVecInto sets dst[i] = a[i]·s for every i. dst may alias a.
func ScalarMulVecInto(dst, a []Element, s *Element) {
	mont.Fr.ScalarMulVec(mont.Vec(dst), mont.Vec(a), l(s))
}

// SubScalarMulVecInto sets dst[i] = (a[i] − b[i])·s for every i — the
// fused (A·B − C)·Z⁻¹ step of the quotient pipeline. dst may alias a
// and/or b element-wise.
func SubScalarMulVecInto(dst, a, b []Element, s *Element) {
	mont.Fr.SubScalarMulVec(mont.Vec(dst), mont.Vec(a), mont.Vec(b), l(s))
}

// Butterfly sets (a, b) = (a+b, a−b) in place — the radix-2 building
// block of the FFT levels.
func Butterfly(a, b *Element) { mont.Fr.Butterfly(l(a), l(b)) }

// ButterflyVec applies Butterfly pairwise: (a[i], b[i]) =
// (a[i]+b[i], a[i]−b[i]). The slices must have equal length and must
// not overlap.
func ButterflyVec(a, b []Element) { mont.Fr.ButterflyVec(mont.Vec(a), mont.Vec(b)) }

// TwiddleButterflyVec applies the decimation-in-time butterfly with
// per-lane twiddles: t = b[i]·tw[i]; (a[i], b[i]) = (a[i]+t, a[i]−t).
// All slices must have equal length; a and b must not overlap.
func TwiddleButterflyVec(a, b, tw []Element) {
	mont.Fr.TwiddleButterflyVec(mont.Vec(a), mont.Vec(b), mont.Vec(tw))
}

package fieldtest

import (
	"math/big"
	"testing"
)

// MulSeeds returns the boundary seed corpus for one modulus: zero, one,
// q−1 (largest canonical value), fully saturated bytes (forces the
// SetBytes reduction and the conditional-subtract edge in every
// backend), and q−1 against 2. Each seed is x||y as two 32-byte
// big-endian values.
func MulSeeds(modulus *big.Int) [][]byte {
	one := make([]byte, 64)
	one[31], one[63] = 1, 1
	var qm1 big.Int
	qm1.Sub(modulus, big.NewInt(1))
	qm1Seed := make([]byte, 64)
	qm1.FillBytes(qm1Seed[:32])
	qm1.FillBytes(qm1Seed[32:])
	sat := make([]byte, 64)
	for i := range sat {
		sat[i] = 0xff
	}
	mixed := make([]byte, 64)
	qm1.FillBytes(mixed[:32])
	mixed[63] = 2
	return [][]byte{make([]byte, 64), one, qm1Seed, sat, mixed}
}

// FuzzMulBackends is the per-field differential fuzz target: whatever
// backend the build dispatches Mul, Square and the vector product to
// must give, bit for bit, the canonical element of the math/big
// product, also in the aliased forms (z==x, z==y, dst==a). Each input
// is x||y as two 32-byte big-endian values reduced by SetBytes.
func (s Suite[E, P]) FuzzMulBackends(f *testing.F) {
	for _, seed := range MulSeeds(s.Modulus) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		var x, y E
		P(&x).SetBytes(data[:32])
		P(&y).SetBytes(data[32:64])
		xb, yb := s.big(x), s.big(y)

		var want, sqWant E
		P(&want).SetBigInt(new(big.Int).Mul(xb, yb))
		P(&sqWant).SetBigInt(new(big.Int).Mul(xb, xb))

		var got, sq E
		P(&got).Mul(&x, &y)
		if got != want {
			t.Fatalf("Mul mismatch for %s, %s: got %s, want %s", xb, yb, P(&got).String(), P(&want).String())
		}
		P(&sq).Square(&x)
		if sq != sqWant {
			t.Fatalf("Square mismatch for %s: got %s, want %s", xb, P(&sq).String(), P(&sqWant).String())
		}

		alias := x
		P(&alias).Mul(&alias, &y)
		if alias != want {
			t.Fatal("aliased Mul(z==x) mismatch")
		}
		alias = y
		P(&alias).Mul(&x, &alias)
		if alias != want {
			t.Fatal("aliased Mul(z==y) mismatch")
		}
		alias = x
		P(&alias).Square(&alias)
		if alias != sqWant {
			t.Fatal("aliased Square mismatch")
		}

		a := []E{x, y, x, y}
		b := []E{y, x, x, y}
		var ySq E
		P(&ySq).SetBigInt(new(big.Int).Mul(yb, yb))
		wants := []E{want, want, sqWant, ySq}
		dst := make([]E, len(a))
		s.MulVec(dst, a, b)
		for i := range dst {
			if dst[i] != wants[i] {
				t.Fatalf("MulVecInto[%d] mismatch", i)
			}
		}
		s.MulVec(a, a, b)
		for i := range a {
			if a[i] != wants[i] {
				t.Fatalf("in-place MulVecInto[%d] mismatch", i)
			}
		}
	})
}

// Package fieldtest is the one property, axiom and encoding test suite
// for the typed Montgomery fields: the fp and fr test files run it
// against their own Element, so both moduli get the same checks through
// the exported API their callers use. It also holds the shared
// microbenchmark ladder.
package fieldtest

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"io"
	"math/big"
	"math/rand"
	"testing"
)

// Element is the method set the suite drives; *fp.Element and
// *fr.Element satisfy it.
type Element[E any] interface {
	*E
	SetZero() *E
	SetOne() *E
	SetUint64(uint64) *E
	SetInt64(int64) *E
	SetBigInt(*big.Int) *E
	SetString(string) (*E, error)
	SetRandom(io.Reader) (*E, error)
	SetBytes([]byte) *E
	SetBytesCanonical([]byte) error
	Bytes() [32]byte
	ToBigInt() *big.Int
	String() string
	IsZero() bool
	IsOne() bool
	Cmp(*E) int
	LexicographicallyLargest() bool
	Add(x, y *E) *E
	Double(x *E) *E
	Sub(x, y *E) *E
	Neg(x *E) *E
	Mul(x, y *E) *E
	Square(x *E) *E
	Exp(x *E, k *big.Int) *E
	Inverse(x *E) *E
}

// Suite runs the shared tests against one field: Modulus is its prime,
// and the package-level functions are passed in because a type's method
// set cannot name them (BatchInvertInto is exported by fp only, so fr
// leaves it nil and skips BatchInversionInto).
type Suite[E comparable, P Element[E]] struct {
	Modulus         *big.Int
	BatchInvert     func(a []E) []E
	BatchInvertInto func(a, res []E)
	MulVec          func(dst, a, b []E)
}

// random returns a deterministic pseudo-random element.
func (s Suite[E, P]) random(rng *rand.Rand) E {
	buf := make([]byte, 40)
	rng.Read(buf)
	var e E
	P(&e).SetBigInt(new(big.Int).SetBytes(buf))
	return e
}

// samples returns n random elements followed by the edge values 0, 1, 2
// and q−1.
func (s Suite[E, P]) samples(seed int64, n int) []E {
	rng := rand.New(rand.NewSource(seed))
	out := make([]E, 0, n+4)
	for i := 0; i < n; i++ {
		out = append(out, s.random(rng))
	}
	var zero, one, two, qm1 E
	P(&one).SetOne()
	P(&two).SetUint64(2)
	P(&qm1).Neg(&one)
	return append(out, zero, one, two, qm1)
}

func (s Suite[E, P]) big(e E) *big.Int { return P(&e).ToBigInt() }

// MontgomeryRoundTrip checks SetBigInt then ToBigInt is the identity on
// [0, q).
func (s Suite[E, P]) MontgomeryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		b := make([]byte, 48)
		rng.Read(b)
		v := new(big.Int).SetBytes(b)
		v.Mod(v, s.Modulus)
		var e E
		if got := P(P(&e).SetBigInt(v)).ToBigInt(); got.Cmp(v) != 0 {
			t.Fatalf("round trip failed: want %s got %s", v, got)
		}
	}
}

// AddSubMulAgainstBig checks Add, Sub, Mul, Square, Double and Neg
// against math/big, including the edge values.
func (s Suite[E, P]) AddSubMulAgainstBig(t *testing.T) {
	xs := s.samples(2, 400)
	ys := s.samples(3, 400)
	mod := s.Modulus
	for i := range xs {
		a, b := xs[i], ys[len(ys)-1-i]
		ab, bb := s.big(a), s.big(b)
		var sum, diff, prod, sq, dbl, neg E
		P(&sum).Add(&a, &b)
		P(&diff).Sub(&a, &b)
		P(&prod).Mul(&a, &b)
		P(&sq).Square(&a)
		P(&dbl).Double(&a)
		P(&neg).Neg(&a)
		for _, c := range []struct {
			op        string
			got, want *big.Int
		}{
			{"add", s.big(sum), new(big.Int).Add(ab, bb)},
			{"sub", s.big(diff), new(big.Int).Sub(ab, bb)},
			{"mul", s.big(prod), new(big.Int).Mul(ab, bb)},
			{"square", s.big(sq), new(big.Int).Mul(ab, ab)},
			{"double", s.big(dbl), new(big.Int).Lsh(ab, 1)},
			{"neg", s.big(neg), new(big.Int).Neg(ab)},
		} {
			if c.got.Cmp(c.want.Mod(c.want, mod)) != 0 {
				t.Fatalf("%s mismatch for %s, %s: got %s want %s", c.op, ab, bb, c.got, c.want)
			}
		}
	}
}

// FieldAxioms checks commutativity, associativity, distributivity,
// additive and multiplicative inverses.
func (s Suite[E, P]) FieldAxioms(t *testing.T) {
	xs := s.samples(4, 300)
	ys := s.samples(5, 300)
	zs := s.samples(6, 300)
	for i := range xs {
		a, b, c := xs[i], ys[i], zs[len(zs)-1-i]
		var ab, ba, s1, s2 E
		P(&ab).Mul(&a, &b)
		P(&ba).Mul(&b, &a)
		P(&s1).Add(&a, &b)
		P(&s2).Add(&b, &a)
		if ab != ba || s1 != s2 {
			t.Fatalf("not commutative at %d", i)
		}
		var l, r, t1, t2 E
		P(&t1).Mul(&a, &b)
		P(&l).Mul(&t1, &c)
		P(&t2).Mul(&b, &c)
		P(&r).Mul(&a, &t2)
		if l != r {
			t.Fatalf("not associative at %d", i)
		}
		P(&t1).Add(&b, &c)
		P(&l).Mul(&a, &t1)
		P(&t1).Mul(&a, &b)
		P(&t2).Mul(&a, &c)
		P(&r).Add(&t1, &t2)
		if l != r {
			t.Fatalf("not distributive at %d", i)
		}
		var inv, prod E
		P(&inv).Inverse(&a)
		P(&prod).Mul(&a, &inv)
		if P(&a).IsZero() && !P(&inv).IsZero() || !P(&a).IsZero() && !P(&prod).IsOne() {
			t.Fatalf("a·a⁻¹ != 1 for %s", P(&a).String())
		}
		var n, sum E
		P(&n).Neg(&a)
		P(&sum).Add(&a, &n)
		if !P(&sum).IsZero() {
			t.Fatalf("a + (−a) != 0 for %s", P(&a).String())
		}
	}
}

// Identities checks 0 and 1.
func (s Suite[E, P]) Identities(t *testing.T) {
	var z, o E
	P(&z).SetZero()
	P(&o).SetOne()
	if !P(&z).IsZero() || P(&z).IsOne() {
		t.Fatal("zero misbehaves")
	}
	if !P(&o).IsOne() || P(&o).IsZero() {
		t.Fatal("one misbehaves")
	}
	var a E
	if _, err := P(&a).SetRandom(nil); err != nil {
		t.Fatal(err)
	}
	var sum, prod, zz E
	P(&sum).Add(&a, &z)
	P(&prod).Mul(&a, &o)
	P(&zz).Mul(&a, &z)
	if sum != a || prod != a || !P(&zz).IsZero() {
		t.Fatal("identity laws fail")
	}
}

// SetInt64 checks negative and positive small constants.
func (s Suite[E, P]) SetInt64(t *testing.T) {
	var a, b E
	P(&a).SetInt64(-7)
	P(&b).SetUint64(7)
	P(&b).Neg(&b)
	if a != b {
		t.Fatal("SetInt64(-7) != -SetUint64(7)")
	}
	if got := P(P(&a).SetInt64(42)).String(); got != "42" {
		t.Fatalf("SetInt64(42) = %s", got)
	}
}

// Exp checks exponentiation against math/big plus x⁰ and x¹.
func (s Suite[E, P]) Exp(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		a := s.random(rng)
		k := new(big.Int).Rand(rng, s.Modulus)
		var got E
		P(&got).Exp(&a, k)
		if want := new(big.Int).Exp(s.big(a), k, s.Modulus); s.big(got).Cmp(want) != 0 {
			t.Fatalf("exp mismatch at iteration %d", i)
		}
	}
	a := s.random(rng)
	var r E
	if !P(P(&r).Exp(&a, big.NewInt(0))).IsOne() {
		t.Fatal("x^0 != 1")
	}
	if *P(&r).Exp(&a, big.NewInt(1)) != a {
		t.Fatal("x^1 != x")
	}
}

// InverseMatchesFermatOracle pins the binary-GCD Inverse to the Fermat
// inverse x^(q−2), on random values and on structured ones that stress
// the GCD's even/odd and comparison branches: small values, their
// negatives, and every power of two in the field.
func (s Suite[E, P]) InverseMatchesFermatOracle(t *testing.T) {
	qMinusTwo := new(big.Int).Sub(s.Modulus, big.NewInt(2))
	check := func(x *E) {
		var want, got E
		P(&want).Exp(x, qMinusTwo)
		P(&got).Inverse(x)
		if want != got {
			t.Fatalf("Inverse mismatch for %s", P(x).String())
		}
	}
	xs := s.samples(8, 500)
	for i := range xs {
		check(&xs[i])
	}
	var x E
	for _, v := range []uint64{0, 1, 2, 3, 4, 255, 1 << 63} {
		P(&x).SetUint64(v)
		check(&x)
		P(&x).Neg(&x)
		check(&x)
	}
	P(&x).SetOne()
	for i := 0; i < s.Modulus.BitLen(); i++ {
		check(&x)
		P(&x).Double(&x)
	}
}

// BytesRoundTrip checks the canonical encoding: random values and q−1
// round-trip, while q, 2²⁵⁶−1 and wrong lengths are rejected.
func (s Suite[E, P]) BytesRoundTrip(t *testing.T) {
	xs := s.samples(9, 200)
	for i := range xs {
		enc := P(&xs[i]).Bytes()
		var b E
		if err := P(&b).SetBytesCanonical(enc[:]); err != nil {
			t.Fatal(err)
		}
		if b != xs[i] {
			t.Fatalf("bytes round trip failed for %s", P(&xs[i]).String())
		}
	}
	var qm1 E
	P(&qm1).SetOne()
	P(&qm1).Neg(&qm1)
	enc := P(&qm1).Bytes()
	if want := new(big.Int).Sub(s.Modulus, big.NewInt(1)); new(big.Int).SetBytes(enc[:]).Cmp(want) != 0 {
		t.Fatal("q−1 encodes wrongly")
	}
	var e E
	if err := P(&e).SetBytesCanonical(enc[:]); err != nil || e != qm1 {
		t.Fatalf("q−1 round trip: %v", err)
	}
	for name, bad := range map[string][]byte{
		"q":      s.Modulus.FillBytes(make([]byte, 32)),
		"2²⁵⁶−1": bytes.Repeat([]byte{0xff}, 32),
		"short":  {1, 2, 3},
		"long":   make([]byte, 33),
	} {
		if err := P(&e).SetBytesCanonical(bad); err == nil {
			t.Fatalf("%s accepted as canonical encoding", name)
		}
	}
}

// CmpAndLexicographicallyLargest checks ordering of canonical values.
func (s Suite[E, P]) CmpAndLexicographicallyLargest(t *testing.T) {
	var a, b E
	P(&a).SetUint64(5)
	P(&b).SetUint64(9)
	if P(&a).Cmp(&b) != -1 || P(&b).Cmp(&a) != 1 || P(&a).Cmp(&a) != 0 {
		t.Fatal("Cmp misbehaves")
	}
	var small, large, half E
	P(&small).SetOne()
	P(&large).Neg(&small) // q−1 > (q−1)/2
	P(&half).SetBigInt(new(big.Int).Rsh(s.Modulus, 1))
	if P(&small).LexicographicallyLargest() || P(&half).LexicographicallyLargest() {
		t.Fatal("1 and (q−1)/2 should not be lexicographically largest")
	}
	if !P(&large).LexicographicallyLargest() {
		t.Fatal("q−1 should be lexicographically largest")
	}
}

// BatchInversion checks BatchInvert against Inverse, zero entries
// included.
func (s Suite[E, P]) BatchInversion(t *testing.T) {
	in := s.samples(10, 45)
	for i := range in {
		if i%7 == 3 {
			in[i] = *new(E)
		}
	}
	s.checkInverses(t, in, s.BatchInvert(in))
	if got := s.BatchInvert(nil); len(got) != 0 {
		t.Fatal("BatchInvert(nil) should be empty")
	}
}

// BatchInversionInto checks BatchInvertInto fully overwrites a
// garbage-filled output buffer.
func (s Suite[E, P]) BatchInversionInto(t *testing.T) {
	in := s.samples(11, 50)
	for i := range in {
		if i%9 == 4 {
			in[i] = *new(E)
		}
	}
	out := s.samples(12, 50)
	s.BatchInvertInto(in, out)
	s.checkInverses(t, in, out)
	s.BatchInvertInto(nil, nil)
}

func (s Suite[E, P]) checkInverses(t *testing.T, in, out []E) {
	t.Helper()
	for i := range in {
		var want E
		P(&want).Inverse(&in[i])
		if out[i] != want {
			t.Fatalf("batch inverse wrong at %d", i)
		}
	}
}

// MulVecInto checks the vector product against Mul, in place and out of
// place, and that mismatched lengths panic.
func (s Suite[E, P]) MulVecInto(t *testing.T) {
	a, b := s.samples(13, 60), s.samples(14, 60)
	dst := make([]E, len(a))
	s.MulVec(dst, a, b)
	for i := range a {
		var want E
		P(&want).Mul(&a[i], &b[i])
		if dst[i] != want {
			t.Fatalf("MulVecInto[%d] != Mul", i)
		}
	}
	s.MulVec(a, a, b)
	for i := range a {
		if a[i] != dst[i] {
			t.Fatalf("in-place MulVecInto[%d] differs", i)
		}
	}
	s.MulVec(nil, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("MulVecInto accepted mismatched lengths")
		}
	}()
	s.MulVec(dst[:1], a, b)
}

// StringAndFormat checks decimal printing through String and fmt.
func (s Suite[E, P]) StringAndFormat(t *testing.T) {
	var a E
	P(&a).SetUint64(123456789)
	if P(&a).String() != "123456789" {
		t.Fatalf("String() = %q", P(&a).String())
	}
	v := any(a) // fmt sees the concrete Element and its Format method
	if got := fmt.Sprintf("%v|%s|%d", v, v, v); got != "123456789|123456789|123456789" {
		t.Fatalf("fmt = %q", got)
	}
}

// SetString checks decimal, hex and malformed literals.
func (s Suite[E, P]) SetString(t *testing.T) {
	var a E
	for lit, want := range map[string]string{"12345": "12345", "0xff": "255"} {
		if _, err := P(&a).SetString(lit); err != nil || P(&a).String() != want {
			t.Fatalf("SetString(%q) = %s, %v", lit, P(&a).String(), err)
		}
	}
	if _, err := P(&a).SetString("not-a-number"); err == nil {
		t.Fatal("garbage accepted")
	}
}

// SetRandomReadsRng pins SetRandom to crypto/rand.Int over the
// modulus, so seeded key generation and the golden vectors built from
// it stay reproducible.
func (s Suite[E, P]) SetRandomReadsRng(t *testing.T) {
	want, err := crand.Int(rand.New(rand.NewSource(12)), s.Modulus)
	if err != nil {
		t.Fatal(err)
	}
	var a E
	if _, err := P(&a).SetRandom(rand.New(rand.NewSource(12))); err != nil {
		t.Fatal(err)
	}
	if s.big(a).Cmp(want) != 0 {
		t.Fatalf("SetRandom = %s, crypto/rand.Int = %s", P(&a).String(), want)
	}
}

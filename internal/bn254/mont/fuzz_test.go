package mont

import (
	"testing"

	"zkrownn/internal/bn254/mont/fieldtest"
)

// FuzzMulBackends pins every multiplication backend to the portable
// generic CIOS core, bit for bit, for both moduli: the per-field
// MulFp/MulFr and SquareFp/SquareFr entry points and the core's own
// field-generic dispatch (assembly on amd64 with ADX, generic
// elsewhere), the in-place aliasing forms, and the vector kernel. On
// purego builds both sides run the generic core and the target
// degenerates to a self-check.
func FuzzMulBackends(f *testing.F) {
	for _, fld := range []*Field{&Fp, &Fr} {
		for _, seed := range fieldtest.MulSeeds(&fld.modulus) {
			f.Add(seed)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 64 {
			return
		}
		checkMulBackends(t, &Fp, MulFp, SquareFp, data)
		checkMulBackends(t, &Fr, MulFr, SquareFr, data)
	})
}

func checkMulBackends(t *testing.T, f *Field, mul func(z, x, y *[Limbs]uint64), square func(z, x *[Limbs]uint64), data []byte) {
	t.Helper()
	var x, y [Limbs]uint64
	f.SetBytes(&x, data[:32])
	f.SetBytes(&y, data[32:64])

	var want, sqWant [Limbs]uint64
	mulGeneric(f, &want, &x, &y)
	squareGeneric(f, &sqWant, &x)
	for _, c := range []struct {
		op        string
		got, want [Limbs]uint64
	}{
		{"Mul", call3(mul, x, y), want},
		{"mul", call3(f.mul, x, y), want},
		{"Square", call2(square, x), sqWant},
		{"square", call2(f.square, x), sqWant},
	} {
		if c.got != c.want {
			t.Fatalf("%s: %s backend mismatch for %s, %s: got %v, generic %v", f.name, c.op, f.String(&x), f.String(&y), c.got, c.want)
		}
	}

	// Aliased forms must agree with the out-of-place result.
	alias := x
	mul(&alias, &alias, &y)
	if alias != want {
		t.Fatalf("%s: aliased Mul(z==x) mismatch", f.name)
	}
	alias = y
	mul(&alias, &x, &alias)
	if alias != want {
		t.Fatalf("%s: aliased Mul(z==y) mismatch", f.name)
	}
	alias = x
	square(&alias, &alias)
	if alias != sqWant {
		t.Fatalf("%s: aliased Square mismatch", f.name)
	}

	// Vector kernel, including the dst==a in-place form.
	a := [][Limbs]uint64{x, y, x, y}
	b := [][Limbs]uint64{y, x, x, y}
	dst := make([][Limbs]uint64, len(a))
	f.MulVec(dst, a, b)
	for i := range dst {
		mulGeneric(f, &want, &a[i], &b[i])
		if dst[i] != want {
			t.Fatalf("%s: MulVec[%d] mismatch", f.name, i)
		}
	}
	f.MulVec(a, a, b)
	for i := range a {
		if a[i] != dst[i] {
			t.Fatalf("%s: in-place MulVec[%d] mismatch", f.name, i)
		}
	}
}

func call3(fn func(z, x, y *[Limbs]uint64), x, y [Limbs]uint64) (z [Limbs]uint64) {
	fn(&z, &x, &y)
	return z
}

func call2(fn func(z, x *[Limbs]uint64), x [Limbs]uint64) (z [Limbs]uint64) {
	fn(&z, &x)
	return z
}

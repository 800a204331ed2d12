package fr

import (
	"testing"

	"zkrownn/internal/bn254/mont/fieldtest"
)

// The field microbenchmark ladder (see package fieldtest); the fp and
// fr files differ only in the package clause and in how Butterfly's
// twiddled pass is spelled.

var randomVec = fieldtest.RandomVec[Element]

func BenchmarkMul(b *testing.B) {
	x, y := MustRandom(), MustRandom()
	var z Element
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
}

func BenchmarkSquare(b *testing.B) {
	x := MustRandom()
	var z Element
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
}

func BenchmarkAdd(b *testing.B) {
	x, y := MustRandom(), MustRandom()
	var z Element
	for i := 0; i < b.N; i++ {
		z.Add(&x, &y)
	}
}

func BenchmarkInverse(b *testing.B) {
	x := MustRandom()
	var z Element
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
}

func BenchmarkBatchInvert1024(b *testing.B) {
	in := randomVec(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BatchInvert(in)
	}
}

func BenchmarkMulVec(b *testing.B) {
	fieldtest.BenchVec(b, func(b *testing.B, n int) {
		x, y, dst := randomVec(n), randomVec(n), make([]Element, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			MulVecInto(dst, x, y)
		}
	})
}

// BenchmarkButterfly times a twiddled butterfly pass: t = hi·tw;
// (lo, hi) = (lo+t, lo−t).
func BenchmarkButterfly(b *testing.B) {
	fieldtest.BenchVec(b, func(b *testing.B, n int) {
		lo, hi, tw := randomVec(n), randomVec(n), randomVec(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			TwiddleButterflyVec(lo, hi, tw)
		}
	})
}

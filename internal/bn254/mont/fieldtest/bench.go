package fieldtest

import (
	"fmt"
	"io"
	"testing"
)

// The fp and fr bench_test.go files run one microbenchmark ladder —
// Mul, Square, Add, Inverse, BatchInvert1024, MulVec, Butterfly — with
// timed loops that call the concrete methods, so they measure the call
// path callers compile to (a generic body would add a dictionary call).
// These helpers hold the untimed setup they share.

// VecSizes spans one FFT butterfly's worth of elements up to a streamed
// MSM chunk's worth.
var VecSizes = []int{64, 1024, 16384}

// BenchVec runs body as one sub-benchmark per VecSizes entry, with
// throughput reported in element bytes. body must reset the timer after
// its setup.
func BenchVec(b *testing.B, body func(b *testing.B, n int)) {
	for _, n := range VecSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 32))
			body(b, n)
		})
	}
}

// RandomVec returns n uniformly random elements.
func RandomVec[E any, P interface {
	*E
	SetRandom(io.Reader) (*E, error)
}](n int) []E {
	out := make([]E, n)
	for i := range out {
		if _, err := P(&out[i]).SetRandom(nil); err != nil {
			panic(err)
		}
	}
	return out
}

package curve

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func BenchmarkG1Double(b *testing.B) {
	p := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.DoubleAssign()
	}
}

func BenchmarkG1Add(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randG1(rng)
	q := randG1(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddAssign(&q)
	}
}

func BenchmarkG1AddMixed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	p := randG1(rng)
	q := randG1(rng)
	var qa G1Affine
	qa.FromJacobian(&q)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddMixed(&qa)
	}
}

func BenchmarkG1ScalarMul(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	p := G1Generator()
	k := randFr(rng)
	var out G1Jac
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarMul(&p, &k)
	}
}

// msmBenchG1Input builds n distinct points via a doubling chain (full
// per-point ScalarMuls would dominate setup at 2^16) plus uniform
// scalars.
func msmBenchG1Input(n int) ([]G1Affine, []fr.Element) {
	rng := rand.New(rand.NewSource(int64(n)))
	jacs := make([]G1Jac, n)
	cur := randG1(rng)
	for i := 0; i < n; i++ {
		jacs[i] = cur
		cur.DoubleAssign()
	}
	scalars := make([]fr.Element, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	return BatchJacToAffineG1(jacs), scalars
}

// msmBenchG2Input is the G2 counterpart of msmBenchG1Input.
func msmBenchG2Input(n int) ([]G2Affine, []fr.Element) {
	rng := rand.New(rand.NewSource(int64(n)))
	jacs := make([]G2Jac, n)
	cur := randG2(rng)
	for i := 0; i < n; i++ {
		jacs[i] = cur
		cur.DoubleAssign()
	}
	scalars := make([]fr.Element, n)
	for i := range scalars {
		scalars[i] = randFr(rng)
	}
	return BatchJacToAffineG2(jacs), scalars
}

// benchProcs is the GOMAXPROCS ladder of the core-scaling rows: 1 and 2
// everywhere, 4 where the host has the cores.
func benchProcs() []int {
	procs := []int{1, 2}
	if 4 <= 2*runtime.NumCPU() {
		procs = append(procs, 4)
	}
	return procs
}

// withProcs wraps an MSM call as a benchmark body run at GOMAXPROCS
// procs.
func withProcs(procs int, msm func()) func(*testing.B) {
	return func(b *testing.B) {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		for i := 0; i < b.N; i++ {
			msm()
		}
	}
}

// BenchmarkMSM is the multi-exponentiation benchmark family: size
// scaling over G1 and G2, in-memory vs streamed at 2^15 points, core
// scaling at 2^16 points (the prover-shaped size), and the shared scalar
// recoding on its own. Compare across PRs before touching the MSM:
//
//	go test ./internal/bn254/curve/ -run '^$' -bench BenchmarkMSM
func BenchmarkMSM(b *testing.B) {
	for _, n := range []int{256, 4096, 1 << 16} {
		points, scalars := msmBenchG1Input(n)
		b.Run(fmt.Sprintf("G1/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG1(points, scalars)
			}
		})
	}

	{
		n := 4096
		points, scalars := msmBenchG2Input(n)
		b.Run(fmt.Sprintf("G2/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = MultiExpG2(points, scalars)
			}
		})
	}

	// In-memory vs streamed at a prover-shaped size: the streamed rows
	// walk the same points in DefaultStreamChunk chunks through a slice
	// source, so the gap is the streaming overhead alone.
	{
		const n, chunk = 1 << 15, DefaultStreamChunk
		g1, scalars := msmBenchG1Input(n)
		g2, _ := msmBenchG2Input(n)
		c := StreamWindowSize(n, chunk)
		for _, procs := range []int{1, 2} {
			b.Run(fmt.Sprintf("G1/n=%d/procs=%d", n, procs), withProcs(procs, func() {
				_ = MultiExpG1(g1, scalars)
			}))
			b.Run(fmt.Sprintf("Stream/G1/n=%d/chunk=%d/procs=%d", n, chunk, procs), withProcs(procs, func() {
				if _, err := MultiExpG1StreamScalars(sliceSource(g1), scalars, c, chunk); err != nil {
					b.Fatal(err)
				}
			}))
			b.Run(fmt.Sprintf("G2/n=%d/procs=%d", n, procs), withProcs(procs, func() {
				_ = MultiExpG2(g2, scalars)
			}))
			b.Run(fmt.Sprintf("Stream/G2/n=%d/chunk=%d/procs=%d", n, chunk, procs), withProcs(procs, func() {
				if _, err := MultiExpG2StreamScalars(sliceSource(g2), scalars, c, chunk); err != nil {
					b.Fatal(err)
				}
			}))
		}
	}

	{
		n := 1 << 16
		points, scalars := msmBenchG1Input(n)
		b.Run(fmt.Sprintf("Decompose/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = DecomposeScalars(scalars, MSMWindowSize(n))
			}
		})
		for _, procs := range benchProcs() {
			b.Run(fmt.Sprintf("G1/n=%d/procs=%d", n, procs), withProcs(procs, func() {
				_ = MultiExpG1(points, scalars)
			}))
		}
	}
}

func BenchmarkFixedBaseMul(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	g := G1Generator()
	table := NewG1FixedBaseTable(&g)
	k := randFr(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = table.Mul(&k)
	}
}

func BenchmarkG1ScalarMulWNAF(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	p := G1Generator()
	k := randFr(rng)
	var out G1Jac
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.ScalarMulWNAF(&p, &k)
	}
}

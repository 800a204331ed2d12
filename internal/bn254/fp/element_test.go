package fp

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/mont/fieldtest"
)

// suite is the shared field test suite, run against this package's Element.
var suite = fieldtest.Suite[Element, *Element]{
	Modulus:         Modulus(),
	BatchInvert:     BatchInvert,
	BatchInvertInto: BatchInvertInto,
	MulVec:          MulVecInto,
}

func TestMontgomeryRoundTrip(t *testing.T)            { suite.MontgomeryRoundTrip(t) }
func TestAddSubMulAgainstBig(t *testing.T)            { suite.AddSubMulAgainstBig(t) }
func TestFieldAxiomsQuick(t *testing.T)               { suite.FieldAxioms(t) }
func TestIdentities(t *testing.T)                     { suite.Identities(t) }
func TestSetInt64(t *testing.T)                       { suite.SetInt64(t) }
func TestExp(t *testing.T)                            { suite.Exp(t) }
func TestInverseMatchesFermatOracle(t *testing.T)     { suite.InverseMatchesFermatOracle(t) }
func TestBytesRoundTrip(t *testing.T)                 { suite.BytesRoundTrip(t) }
func TestCmpAndLexicographicallyLargest(t *testing.T) { suite.CmpAndLexicographicallyLargest(t) }
func TestBatchInvert(t *testing.T)                    { suite.BatchInversion(t) }
func TestBatchInvertInto(t *testing.T)                { suite.BatchInversionInto(t) }
func TestMulVecInto(t *testing.T)                     { suite.MulVecInto(t) }
func TestStringAndFormat(t *testing.T)                { suite.StringAndFormat(t) }
func TestSetString(t *testing.T)                      { suite.SetString(t) }
func TestSetRandomReadsRng(t *testing.T)              { suite.SetRandomReadsRng(t) }

func TestSqrt(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nonResidues := 0
	for i := 0; i < 100; i++ {
		var a Element
		a.SetBigInt(new(big.Int).Rand(rng, Modulus()))
		var sq, rt, chk Element
		sq.Square(&a)
		if rt.Sqrt(&sq) == nil {
			t.Fatal("square reported as non-residue")
		}
		if chk.Square(&rt); !chk.Equal(&sq) {
			t.Fatal("sqrt(x²)² != x²")
		}
		if big.Jacobi(a.ToBigInt(), Modulus()) == -1 {
			nonResidues++
			before := rt
			if rt.Sqrt(&a) != nil || rt != before {
				t.Fatal("non-residue has a square root, or Sqrt wrote z")
			}
		}
	}
	if nonResidues == 0 {
		t.Fatal("no non-residues sampled; suspicious")
	}
}

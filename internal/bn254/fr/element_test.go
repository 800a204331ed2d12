package fr

import (
	"testing"

	"zkrownn/internal/bn254/mont/fieldtest"
)

// suite is the shared field test suite, run against this package's Element.
var suite = fieldtest.Suite[Element, *Element]{
	Modulus:     Modulus(),
	BatchInvert: BatchInvert,
	MulVec:      MulVecInto,
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
func TestMulVecInto(t *testing.T)                     { suite.MulVecInto(t) }
func TestStringAndFormat(t *testing.T)                { suite.StringAndFormat(t) }
func TestSetString(t *testing.T)                      { suite.SetString(t) }
func TestSetRandomReadsRng(t *testing.T)              { suite.SetRandomReadsRng(t) }

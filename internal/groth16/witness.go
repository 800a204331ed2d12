package groth16

import (
	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
)

// The out-of-core prover reads its spilled witness two ways: constraint
// rows gather wires at random through the store's page cache (rowEval),
// and the wire-query MSMs stream wire ranges sequentially as scalar
// chunks (witnessSource). The page cache is single-goroutine, so both
// run serially; the store's read errors are sticky and checked once per
// window.

// witnessSource adapts wires [off, Len) to a curve.ScalarSource,
// recording one "witness/stream" span per chunk read.
func witnessSource(wf *r1cs.WitnessFile, off int, tr *obs.Trace) curve.ScalarSource {
	return func(dst []fr.Element, start int) error {
		sp := tr.Span("witness/stream")
		err := wf.ReadRange(dst, off+start)
		sp.End()
		return err
	}
}

// rowEval computes ⟨window row i, w⟩ against the spilled witness.
func rowEval(win *r1cs.RowWindow, i int, wf *r1cs.WitnessFile) fr.Element {
	wires, coeffs := win.Row(i)
	var acc, t fr.Element
	for k := range wires {
		wv := wf.Get(wires[k])
		t.Mul(&win.Dict[coeffs[k]], &wv)
		acc.Add(&acc, &t)
	}
	return acc
}

// errSatisfyStop aborts the window walk once a violation is found.
var errSatisfyStop = &satisfyStopError{}

type satisfyStopError struct{}

func (*satisfyStopError) Error() string { return "groth16: satisfy walk stopped" }

// checkSatisfied verifies A·w ∘ B·w = C·w row by row, streaming the
// three matrices through lockstep row windows (one "csr/row-window"
// span each). On failure the returned index is the first violated
// constraint, matching IsSatisfied.
func checkSatisfied(sys r1cs.Constraints, wf *r1cs.WitnessFile, tr *obs.Trace) (bool, int, error) {
	if one := wf.Get(0); !one.IsOne() {
		return false, -1, wf.Err()
	}
	bad := -1
	err := r1cs.ForRowWindows(r1cs.DefaultRowWindowTerms,
		[]r1cs.MatrixStream{sys.MatA(), sys.MatB(), sys.MatC()},
		func(wins []*r1cs.RowWindow) error {
			sp := tr.Span("csr/row-window")
			defer sp.End()
			wa, wb, wc := wins[0], wins[1], wins[2]
			for i := 0; i < wa.Rows; i++ {
				a := rowEval(wa, i, wf)
				b := rowEval(wb, i, wf)
				c := rowEval(wc, i, wf)
				var ab fr.Element
				ab.Mul(&a, &b)
				if !ab.Equal(&c) {
					bad = wa.Start + i
					return errSatisfyStop
				}
			}
			return wf.Err()
		})
	if err == errSatisfyStop {
		return false, bad, wf.Err()
	}
	if err != nil {
		return false, 0, err
	}
	return true, 0, wf.Err()
}

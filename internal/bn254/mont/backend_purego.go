//go:build !amd64 || purego

package mont

// MulBackend names the multiplication backend selected at startup; on
// this build it is always the portable generic core.
func MulBackend() string { return "generic" }

// MulFp sets z = x·y in F_p (Montgomery product).
func MulFp(z, x, y *[Limbs]uint64) { mulGeneric(&Fp, z, x, y) }

// MulFr sets z = x·y in F_r (Montgomery product).
func MulFr(z, x, y *[Limbs]uint64) { mulGeneric(&Fr, z, x, y) }

// SquareFp sets z = x² in F_p with the dedicated no-carry squaring.
func SquareFp(z, x *[Limbs]uint64) { squareGeneric(&Fp, z, x) }

// SquareFr sets z = x² in F_r with the dedicated no-carry squaring.
func SquareFr(z, x *[Limbs]uint64) { squareGeneric(&Fr, z, x) }

func (f *Field) mul(z, x, y *[Limbs]uint64)       { mulGeneric(f, z, x, y) }
func (f *Field) square(z, x *[Limbs]uint64)       { squareGeneric(f, z, x) }
func (f *Field) mulVec(dst, a, b [][Limbs]uint64) { mulVecGeneric(f, dst, a, b) }

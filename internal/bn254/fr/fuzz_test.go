package fr

import "testing"

// FuzzFrMulBackends pins this build's multiplication backend to the
// math/big product through the typed Element API; see
// fieldtest.Suite.FuzzMulBackends. The backend-against-generic-core
// check over both moduli is mont.FuzzMulBackends.
func FuzzFrMulBackends(f *testing.F) { suite.FuzzMulBackends(f) }

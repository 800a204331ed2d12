//go:build !race

package r1cs

// pageCacheOpsDivisor scales down the random-op count of
// TestWitnessFilePageCache; plain builds run all of it (see race_test.go).
const pageCacheOpsDivisor = 1

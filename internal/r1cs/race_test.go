//go:build race

package r1cs

// pageCacheOpsDivisor scales down the random-op count of
// TestWitnessFilePageCache. The race detector slows its page-cache churn
// by two orders of magnitude, so race builds run a sixteenth of the ops,
// still many times the page loads the cache can hold.
const pageCacheOpsDivisor = 16

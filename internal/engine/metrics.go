package engine

import (
	"time"

	"zkrownn/internal/obs"
)

// Engine-level metrics on the process-wide obs registry. Registration
// is idempotent, so multiple engines in one process share the series —
// matching the exposition model where /metrics reports the process, not
// one engine instance.
var (
	mSetupSeconds = obs.Default().Histogram("zkrownn_setup_seconds",
		"Trusted setup wall-clock time (executed setups only, not cache hits).", obs.TimeBuckets())
	mSolveSeconds = obs.Default().Histogram("zkrownn_solve_seconds",
		"Witness generation (solver-program replay) wall-clock time.", obs.TimeBuckets())
	mProveSeconds = obs.Default().Histogram("zkrownn_prove_seconds",
		"Groth16 prove wall-clock time per proof.", obs.TimeBuckets())
	mVerifySeconds = obs.Default().Histogram("zkrownn_verify_seconds",
		"Groth16 verify wall-clock time per call (batched calls count once).", obs.TimeBuckets())

	mKeycacheMemHits = obs.Default().Counter(`zkrownn_keycache_hits_total{tier="memory"}`,
		"Key lookups served from a cache tier, by tier.")
	mKeycacheDiskHits = obs.Default().Counter(`zkrownn_keycache_hits_total{tier="disk"}`,
		"Key lookups served from a cache tier, by tier.")
	mKeycacheMisses = obs.Default().Counter("zkrownn_keycache_misses_total",
		"Key lookups that ran a trusted setup.")

	mProvesTotal = obs.Default().Counter("zkrownn_proves_total",
		"Proofs produced.")
	mSpillProvesTotal = obs.Default().Counter("zkrownn_spill_proves_total",
		"Proofs produced out-of-core (streamed key, disk-resident CSR, spilled witness).")
	mProveErrorsTotal = obs.Default().Counter("zkrownn_prove_errors_total",
		"Prove requests that failed at any stage.")
	mVerifiesTotal = obs.Default().Counter("zkrownn_verifies_total",
		"Proofs verified (batched proofs count individually).")
)

func observeSeconds(h *obs.Histogram, d time.Duration) {
	h.Observe(d.Seconds())
}

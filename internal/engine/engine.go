// Package engine is ZKROWNN's prover engine: a concurrent, cache-aware
// subsystem that owns the Groth16 setup → prove → verify lifecycle for
// many requests.
//
// The engine keys trusted setup on the circuit digest
// (r1cs.CompiledSystem.Digest): two requests for the same circuit
// *architecture* — the common shape of ownership disputes, where one
// model family is proved over and over against different suspect
// weights — share one setup. Keys live in a bounded in-memory LRU with
// an optional on-disk tier (the groth16 WriteTo/ReadFrom encoding), so
// a restarted service skips every setup it has ever run; the compiled
// system itself is cached beside the keys, so solve-many requests may
// name the circuit by digest instead of re-sending it. Concurrent
// requests for the same digest are deduplicated: one goroutine runs
// setup, the rest wait for it.
//
// Requests carry input assignments rather than full witnesses by
// default: the engine replays the circuit's recorded solver program
// (CompiledSystem.Solve) per job — the compile-once / solve-many split
// that keeps multi-million-constraint circuits from being rebuilt on
// every proof.
//
// ProveMany fans requests across a worker pool; VerifyMany folds many
// proofs under one verifying key into a single batched pairing product.
// Every stage is metered (Stats) so operators can see cache hit rates
// and where wall-clock time goes.
package engine

import (
	"bufio"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/groth16"
	"zkrownn/internal/obs"
	"zkrownn/internal/r1cs"
)

// Options configures an Engine. The zero value is usable: a small
// memory-only cache and one prover worker per core.
type Options struct {
	// CacheEntries bounds the in-memory key cache (default 16; a
	// negative value means unbounded).
	CacheEntries int
	// CacheDir, when non-empty, enables on-disk key persistence keyed by
	// circuit digest. The directory is created on first write.
	CacheDir string
	// Workers sizes the ProveMany pool (default GOMAXPROCS).
	Workers int
	// Rand supplies setup and prover randomness (default crypto/rand).
	// It must be safe for concurrent use; the engine serializes setup
	// internally but proves concurrently.
	Rand io.Reader
	// MemoryBudget, when > 0, picks between the engine's two prover
	// modes per circuit. A circuit whose raw proving-key encoding
	// (groth16.RawPKSizeBytes) fits the budget is set up and proved in
	// memory. One whose key exceeds it goes fully out-of-core: setup
	// spills the key straight to disk; the constraint system is written
	// once to a digest-keyed section file beside it; and every prove
	// streams the key and the constraint rows back in bounded windows
	// while the solver writes the witness to a disk-backed page cache.
	// The cache then retains only a solver-program copy of the circuit
	// (r1cs.CompiledSystem.StripForSolve), so no component of the
	// pipeline scales resident memory with circuit size. Set it to 1 to
	// force the out-of-core mode for every circuit. Spill files go into
	// CacheDir when configured (the key file doubles as the cache
	// entry), otherwise into a temporary directory removed on Close.
	MemoryBudget int64
}

// Request is one proving job in the compile-once / solve-many shape:
// the compiled system (or the digest of one the engine has already
// seen) plus the per-proof input assignment, from which the engine
// replays the circuit's solver program to rebuild the witness.
type Request struct {
	Name string
	// Ctx, when non-nil, carries request-scoped telemetry: a trace
	// attached with obs.ContextWithTrace receives per-phase spans for the
	// whole setup → solve → prove pipeline. The engine does not honor
	// cancellation — proofs run to completion once started.
	Ctx context.Context
	// System is the compiled circuit. It may be nil when Digest names a
	// circuit the engine has cached from an earlier request.
	System *r1cs.CompiledSystem
	// Digest optionally identifies a cached circuit (hex, as returned in
	// Result.Digest) so solve-many callers don't re-send the system.
	// Ignored when System is set.
	Digest string
	// Public and Secret bind the circuit's declared inputs, in
	// declaration order (r1cs.Assignment halves).
	Public []fr.Element
	Secret []fr.Element
	// Rand overrides the engine's randomness source for this request
	// (useful for deterministic tests). The engine serializes reads from
	// a per-request source, so a plain math/rand Reader is safe.
	Rand io.Reader
}

// Result reports one proving job's artifacts and per-stage timings.
type Result struct {
	Name   string
	Digest string
	Keys   *KeyPair
	Proof  *groth16.Proof
	// Witness is the solved wire assignment the proof was produced
	// from. It is nil in the out-of-core mode, where the witness lives
	// in a disk-backed spill store (the whole point of that mode is
	// never materializing it); use PublicInputs, which is populated in
	// both modes.
	Witness []fr.Element
	// PublicInputs is the proof's instance — the public wires in the
	// order Verify expects (CompiledSystem.PublicValues). Always
	// populated, whichever residency the witness had.
	PublicInputs []fr.Element
	// SetupTime is the wall-clock cost of obtaining keys. On a cache hit
	// it is the lookup cost — effectively zero next to a real setup.
	SetupTime time.Duration
	// SolveTime is the witness-generation cost.
	SolveTime time.Duration
	ProveTime time.Duration
	// CacheHit is true when setup was skipped (memory or disk tier).
	CacheHit bool
	// PersistErr reports a failed write to the disk cache tier. The keys
	// are still cached in memory and fully usable; it is surfaced so
	// callers don't promise on-disk keys that don't exist.
	PersistErr error
	// Err is set instead of returned so ProveMany can report per-request
	// failures without abandoning the rest of the batch.
	Err error
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	Setups      uint64 // trusted setups actually executed
	MemHits     uint64 // key lookups served from the in-memory LRU
	DiskHits    uint64 // key lookups served from the disk tier
	Solves      uint64 // witnesses generated by solver-program replay
	Proves      uint64
	SpillProves uint64 // subset of Proves run out-of-core: streamed key and CSR, spilled witness
	Verifies    uint64 // individual + batched verification calls
	Aggregates  uint64 // aggregation artifacts produced
	SetupTime   time.Duration
	SolveTime   time.Duration
	ProveTime   time.Duration
	VerifyTime  time.Duration
	// AggregateTime is aggregation wall-clock (prove + self-check).
	AggregateTime time.Duration
}

// ErrClosed is returned by every Engine entry point after Close: the
// sentinel a service front-end turns into a "shutting down" response.
var ErrClosed = errors.New("engine: engine is closed")

// Engine is safe for concurrent use by multiple goroutines.
//
// All Stats counters are atomics and may be read (via Stats) at any
// time, including while proves and verifies are running on other
// goroutines; the snapshot is per-counter atomic, not a globally
// consistent cut, which is fine for monitoring.
type Engine struct {
	opts  Options
	cache *keyCache

	// lifecycle serializes Close against in-flight work: every public
	// entry point holds a read lock for its whole duration, so Close
	// (the sole writer) blocks until in-flight proves and their disk
	// cache writes have drained, and every later acquisition fails with
	// ErrClosed.
	lifecycle sync.RWMutex
	closed    bool

	// inflight deduplicates concurrent setups per digest.
	inflightMu sync.Mutex
	inflight   map[string]*setupCall

	// streamDir is the lazily created spill directory for streamed keys
	// when no CacheDir is configured; Close removes it.
	streamMu  sync.Mutex
	streamDir string

	// srs is the lazily built proof-aggregation SRS (see aggregate.go).
	srsMu sync.Mutex
	srs   *ipp.SRS

	setups, memHits, diskHits           atomic.Uint64
	solves, proves, spillProves         atomic.Uint64
	verifies, aggregates                atomic.Uint64
	setupNs, solveNs, proveNs, verifyNs atomic.Int64
	aggregateNs                         atomic.Int64
}

type setupCall struct {
	done       chan struct{}
	keys       *KeyPair
	err        error
	persistErr error
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 16
	}
	if opts.CacheEntries < 0 {
		opts.CacheEntries = 0 // unbounded in keyCache terms
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Rand == nil {
		opts.Rand = rand.Reader
	}
	return &Engine{
		opts:     opts,
		cache:    newKeyCache(opts.CacheEntries, opts.CacheDir),
		inflight: make(map[string]*setupCall),
	}
}

// acquire registers one unit of in-flight work against Close. It fails
// with ErrClosed once Close has run (or is waiting: a pending writer
// blocks new readers, so requests arriving during a drain are rejected
// as soon as it completes).
func (e *Engine) acquire() error {
	e.lifecycle.RLock()
	if e.closed {
		e.lifecycle.RUnlock()
		return ErrClosed
	}
	return nil
}

func (e *Engine) release() { e.lifecycle.RUnlock() }

// Close shuts the engine down gracefully: it waits for in-flight work —
// proves, setups, and their write-through disk cache persistence, all of
// which run under a lifecycle read lock — to drain, then marks the
// engine closed so every subsequent call fails with ErrClosed. The key
// caches (memory and disk) are left intact. Close is idempotent and safe
// to call concurrently.
func (e *Engine) Close() error {
	e.lifecycle.Lock()
	defer e.lifecycle.Unlock()
	e.closed = true
	// Remove the temporary spill directory, if one was created. Open
	// streamed-key handles stay readable until released (POSIX unlink
	// semantics), but no new work can reach them past this point.
	e.streamMu.Lock()
	if e.streamDir != "" {
		os.RemoveAll(e.streamDir)
		e.streamDir = ""
	}
	e.streamMu.Unlock()
	return nil
}

// SpillsConstraintSystem picks the prover mode for sys: true means
// out-of-core — streamed key plus disk-resident CSR and spilled witness
// — because its raw proving key exceeds the memory budget; false means
// in memory. A solver-only (stripped) system has no CSR arrays and can
// only be proved through its spill files, so it is always out-of-core.
// Once a first prove has populated the disk tier, callers holding the
// compiled system only for re-proving can swap it for its StripForSolve
// copy and release the CSR arrays: the engine re-opens the constraint
// rows from its digest-keyed section file.
func (e *Engine) SpillsConstraintSystem(sys *r1cs.CompiledSystem) bool {
	if sys.Stripped() {
		return true
	}
	if e.opts.MemoryBudget <= 0 {
		return false
	}
	raw, err := groth16.RawPKSizeBytes(sys)
	if err != nil {
		return false // setup will surface the real error
	}
	return raw > e.opts.MemoryBudget
}

// witnessPageBudget sizes the spilled witness's resident page cache: a
// quarter of the memory budget, leaving the rest for streamed-MSM
// windows and FFT scratch (r1cs.NewWitnessFile enforces its own small
// floor).
func (e *Engine) witnessPageBudget() int64 { return e.opts.MemoryBudget / 4 }

// csrPath is the digest-keyed spill location of a constraint system's
// section file, beside the streamed key it was set up into.
func csrPath(dir, digest string) string { return filepath.Join(dir, digest+".csr") }

// ensureCSFile returns an open, validated handle on the digest's CSR
// spill file, writing it from sys first when missing or corrupt. A
// solver-only (stripped) system cannot regenerate the file, so its
// absence is an error instructing the caller to resend the circuit.
func (e *Engine) ensureCSFile(sys *r1cs.CompiledSystem, digest string) (*r1cs.CompiledSystemFile, error) {
	dir, err := e.streamKeyDir()
	if err != nil {
		return nil, err
	}
	path := csrPath(dir, digest)
	if cf, err := r1cs.OpenCompiledSystemFile(path); err == nil {
		return cf, nil
	}
	if sys.Stripped() {
		return nil, fmt.Errorf("engine: no CSR spill file for digest %s and the cached circuit is solver-only (resend the compiled system)", digest)
	}
	if err := r1cs.WriteCompiledSystemFile(path, sys); err != nil {
		return nil, fmt.Errorf("engine: spill constraint system: %w", err)
	}
	cf, err := r1cs.OpenCompiledSystemFile(path)
	if err != nil {
		return nil, fmt.Errorf("engine: reopen spilled constraint system: %w", err)
	}
	return cf, nil
}

// cacheSystem picks what to retain beside out-of-core keys: the CSR
// arrays live in the spill file, so the cache keeps only the solver
// program and input layout.
func cacheSystem(sys *r1cs.CompiledSystem) *r1cs.CompiledSystem {
	if sys.Stripped() {
		return sys
	}
	return sys.StripForSolve()
}

// streamKeyDir resolves (creating if needed) the directory streamed
// keys spill into: the configured CacheDir, where the spill file
// doubles as the disk cache entry, or a process-lifetime temp dir.
func (e *Engine) streamKeyDir() (string, error) {
	if e.opts.CacheDir != "" {
		return e.opts.CacheDir, os.MkdirAll(e.opts.CacheDir, 0o755)
	}
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	if e.streamDir == "" {
		dir, err := os.MkdirTemp("", "zkrownn-stream-*")
		if err != nil {
			return "", err
		}
		e.streamDir = dir
	}
	return e.streamDir, nil
}

// existingStreamDir returns the spill directory only if one may already
// hold keys (never creates).
func (e *Engine) existingStreamDir() (string, bool) {
	if e.opts.CacheDir != "" {
		return e.opts.CacheDir, true
	}
	e.streamMu.Lock()
	defer e.streamMu.Unlock()
	return e.streamDir, e.streamDir != ""
}

// streamFromDisk opens a previously spilled streamed key for a digest.
// Any integrity or parse failure is a miss — the caller re-runs setup
// and overwrites the bad file.
func (e *Engine) streamFromDisk(digest string) (*KeyPair, bool) {
	dir, ok := e.existingStreamDir()
	if !ok {
		return nil, false
	}
	pkF, pkr, err := openFramed(filepath.Join(dir, digest+".pk"))
	if err != nil {
		return nil, false
	}
	spk, err := groth16.OpenStreamedProvingKey(pkr)
	if err != nil {
		pkF.Close()
		return nil, false
	}
	spk.SpillDir = dir
	vkF, vkr, err := openFramed(filepath.Join(dir, digest+".vk"))
	if err != nil {
		pkF.Close()
		return nil, false
	}
	vk := new(groth16.VerifyingKey)
	_, err = vk.ReadFrom(bufio.NewReader(vkr))
	vkF.Close()
	if err != nil {
		pkF.Close()
		return nil, false
	}
	// pkF stays open for the key's lifetime: the StreamedProvingKey
	// reads through it on every prove. Its descriptor is reclaimed by
	// the runtime finalizer once the cache entry is evicted and
	// collected.
	return &KeyPair{VK: vk, Stream: spk}, true
}

// setupStreamed runs trusted setup in out-of-core mode: the constraint
// system goes to its CSR spill file first, setup streams its QAP
// accumulation from that file, and the proving key is spilled straight
// to a framed file (never materialized in RAM) and reopened as a
// StreamedProvingKey. The returned KeyPair carries both open handles
// for proves to share. persistErr carries a best-effort verifying-key
// persistence failure; err is fatal.
func (e *Engine) setupStreamed(sys *r1cs.CompiledSystem, digest string, rng io.Reader) (kp *KeyPair, persistErr, err error) {
	dir, err := e.streamKeyDir()
	if err != nil {
		return nil, nil, err
	}
	csf, err := e.ensureCSFile(sys, digest)
	if err != nil {
		return nil, nil, err
	}
	var vk *groth16.VerifyingKey
	pkPath := filepath.Join(dir, digest+".pk")
	if err := writeFramedFile(pkPath, func(w io.Writer) error {
		var serr error
		vk, serr = groth16.SetupStreamed(csf, rng, w)
		return serr
	}); err != nil {
		csf.Close()
		return nil, nil, fmt.Errorf("engine: streamed setup: %w", err)
	}
	pkF, pkr, err := openFramed(pkPath)
	if err != nil {
		csf.Close()
		return nil, nil, fmt.Errorf("engine: reopen spilled proving key: %w", err)
	}
	spk, err := groth16.OpenStreamedProvingKey(pkr)
	if err != nil {
		pkF.Close()
		csf.Close()
		return nil, nil, fmt.Errorf("engine: spilled proving key: %w", err)
	}
	spk.SpillDir = dir
	persistErr = writeFramedFile(filepath.Join(dir, digest+".vk"), func(w io.Writer) error {
		_, werr := vk.WriteTo(w)
		return werr
	})
	return &KeyPair{VK: vk, Stream: spk, CSFile: csf}, persistErr, nil
}

// Keys returns the Groth16 key pair for a compiled system, running the
// trusted setup only when no cache tier holds the digest. The bool
// reports whether setup was skipped. Concurrent callers with the same
// digest share one setup execution. The compiled system is retained
// beside the keys (same LRU entry), so later requests may reference it
// by digest alone.
func (e *Engine) Keys(sys *r1cs.CompiledSystem, rng io.Reader) (*KeyPair, bool, error) {
	if err := e.acquire(); err != nil {
		return nil, false, err
	}
	defer e.release()
	keys, hit, _, _, err := e.keys(sys, rng, nil)
	return keys, hit, err
}

// Circuit returns the compiled system cached beside the keys for a
// digest, if the entry is still resident in the memory tier.
func (e *Engine) Circuit(digest string) (*r1cs.CompiledSystem, bool) {
	return e.cache.circuit(digest)
}

// DropMemoryCache empties the in-memory key/circuit cache; the disk
// tier is untouched, so later requests for a persisted digest pay a
// disk load (or, for streamed keys, a cheap re-index of the spilled
// file) instead of a re-setup. For operators this is the response to
// memory pressure; benchmarks use it so one circuit's measurement
// doesn't retain another's compiled system.
func (e *Engine) DropMemoryCache() {
	e.cache.clear()
}

func (e *Engine) keys(sys *r1cs.CompiledSystem, rng io.Reader, tr *obs.Trace) (keys *KeyPair, hit bool, digest string, persistErr error, err error) {
	digest = sys.DigestHex()
	if keys, ok := e.cache.getMem(digest, sys); ok {
		e.memHits.Add(1)
		mKeycacheMemHits.Inc()
		return keys, true, digest, nil, nil
	}

	e.inflightMu.Lock()
	if call, ok := e.inflight[digest]; ok {
		e.inflightMu.Unlock()
		<-call.done
		if call.err != nil {
			return nil, false, digest, nil, call.err
		}
		// A waiter's wall-clock includes the setup it blocked on, so it
		// reports hit=false: its cost accounting must not read as "free"
		// even though it didn't execute the setup itself.
		return call.keys, false, digest, call.persistErr, nil
	}
	// Re-check the memory tier under inflightMu: another goroutine may
	// have finished setup and deregistered between our miss above and
	// taking the lock — without this, that window runs a redundant setup.
	if keys, ok := e.cache.getMem(digest, sys); ok {
		e.inflightMu.Unlock()
		e.memHits.Add(1)
		mKeycacheMemHits.Inc()
		return keys, true, digest, nil, nil
	}
	call := &setupCall{done: make(chan struct{})}
	e.inflight[digest] = call
	e.inflightMu.Unlock()

	// The disk load sits inside the singleflight so a cold-memory burst
	// of same-digest requests deserializes (or indexes) the key file
	// once, not once per worker.
	diskHit := false
	stream := e.SpillsConstraintSystem(sys)
	var fromDisk *KeyPair
	var ok bool
	sp := tr.Span("keys/disk-load")
	if stream {
		// In out-of-core mode the disk tier is the authoritative key
		// store; a hit costs one integrity pass plus section indexing,
		// never a full materialization.
		if fromDisk, ok = e.streamFromDisk(digest); ok {
			// The CSR spill file rides beside the key files; a missing
			// or corrupt one is rewritten from sys here. If that fails
			// (solver-only sys, dead disk) the hit is voided and the
			// setup path below reports the error.
			if csf, cerr := e.ensureCSFile(sys, digest); cerr == nil {
				fromDisk.CSFile = csf
				e.cache.putMem(digest, fromDisk, cacheSystem(sys))
			} else {
				fromDisk, ok = nil, false
			}
		}
	} else {
		fromDisk, ok = e.cache.getDisk(digest, sys)
	}
	sp.End()
	if ok {
		e.diskHits.Add(1)
		mKeycacheDiskHits.Inc()
		call.keys = fromDisk
		diskHit = true
	} else if stream {
		mKeycacheMisses.Inc()
		sp := tr.Span("keys/setup-streamed")
		start := time.Now()
		kp, perr, serr := e.setupStreamed(sys, digest, e.requestRand(rng))
		elapsed := time.Since(start)
		sp.End()
		if serr == nil {
			call.keys = kp
			e.setups.Add(1)
			e.setupNs.Add(int64(elapsed))
			observeSeconds(mSetupSeconds, elapsed)
			e.cache.putMem(digest, kp, cacheSystem(sys))
			call.persistErr = perr
		}
		call.err = serr
	} else {
		mKeycacheMisses.Inc()
		sp := tr.Span("keys/setup")
		start := time.Now()
		pk, vk, serr := groth16.Setup(sys, e.requestRand(rng))
		elapsed := time.Since(start)
		sp.End()
		if serr == nil {
			call.keys = &KeyPair{PK: pk, VK: vk}
			e.setups.Add(1)
			e.setupNs.Add(int64(elapsed))
			observeSeconds(mSetupSeconds, elapsed)
			// Persistence is best-effort; a disk-tier write failure
			// leaves the keys cached in memory and the engine fully
			// functional.
			call.persistErr = e.cache.put(digest, call.keys, sys)
		}
		call.err = serr
	}

	e.inflightMu.Lock()
	delete(e.inflight, digest)
	e.inflightMu.Unlock()
	close(call.done)

	if call.err != nil {
		return nil, false, digest, nil, call.err
	}
	return call.keys, diskHit, digest, call.persistErr, nil
}

// Prove runs one job end-to-end: keys from the cache (or a fresh setup)
// and then the Groth16 prover. The returned Result always has Err nil —
// errors are returned — but shares its layout with ProveMany results.
func (e *Engine) Prove(req Request) (*Result, error) {
	if err := e.acquire(); err != nil {
		return nil, err
	}
	defer e.release()
	res := e.prove(req)
	if res.Err != nil {
		return nil, res.Err
	}
	return res, nil
}

func (e *Engine) prove(req Request) *Result {
	res := &Result{Name: req.Name}
	tr := obs.TraceFrom(req.Ctx)
	sys := req.System
	if sys == nil {
		if req.Digest == "" {
			res.Err = errors.New("engine: request has no constraint system")
			return res
		}
		cached, ok := e.cache.circuit(req.Digest)
		if !ok {
			res.Err = fmt.Errorf("engine: no cached circuit for digest %s (resend the compiled system)", req.Digest)
			return res
		}
		sys = cached
	}

	sp := tr.Span("engine/keys")
	start := time.Now()
	keys, hit, digest, persistErr, err := e.keys(sys, req.Rand, tr)
	res.SetupTime = time.Since(start)
	sp.End()
	res.Digest = digest
	res.CacheHit = hit
	res.PersistErr = persistErr
	if err != nil {
		mProveErrorsTotal.Inc()
		res.Err = fmt.Errorf("engine: setup: %w", err)
		return res
	}
	res.Keys = keys
	if sys.Stripped() && keys.Stream == nil {
		// A solver-only circuit copy has placeholder CSR arrays; proving
		// it against in-memory keys would silently "satisfy" empty
		// constraints. SpillsConstraintSystem routes stripped systems
		// out-of-core, so this only trips when in-memory keys were
		// already cached for the digest.
		mProveErrorsTotal.Inc()
		res.Err = errors.New("engine: cached circuit is solver-only but its keys are in memory (resend the compiled system)")
		return res
	}

	var proof *groth16.Proof
	if keys.Stream != nil {
		proof, err = e.proveStreamed(sys, keys, req, res, tr)
	} else {
		proof, err = e.proveInMemory(sys, keys, req, res, tr)
	}
	if err != nil {
		mProveErrorsTotal.Inc()
		res.Err = err
		return res
	}
	e.proves.Add(1)
	mProvesTotal.Inc()
	if keys.Stream != nil {
		e.spillProves.Add(1)
		mSpillProvesTotal.Inc()
	}
	e.proveNs.Add(int64(res.ProveTime))
	observeSeconds(mProveSeconds, res.ProveTime)
	res.Proof = proof
	return res
}

// proveInMemory is the in-memory mode: solve into a resident witness,
// prove against the resident key and CSR arrays.
func (e *Engine) proveInMemory(sys *r1cs.CompiledSystem, keys *KeyPair, req Request, res *Result, tr *obs.Trace) (*groth16.Proof, error) {
	var witness []fr.Element
	err := e.solve(res, tr, func() (err error) {
		witness, err = sys.Solve(req.Public, req.Secret)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Witness = witness
	res.PublicInputs = sys.PublicValues(witness)
	sp := tr.Span("engine/prove")
	start := time.Now()
	proof, err := groth16.ProveTraced(sys, keys.PK, witness, e.requestRand(req.Rand), tr)
	res.ProveTime = time.Since(start)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("engine: prove: %w", err)
	}
	return proof, nil
}

// proveStreamed is the out-of-core mode: solve straight into a
// disk-backed witness tape, then prove against the streamed key and the
// CSR spill file, reading wires back through the same tape. Only the
// instance — public wires [1, NbPublic) — comes back resident.
func (e *Engine) proveStreamed(sys *r1cs.CompiledSystem, keys *KeyPair, req Request, res *Result, tr *obs.Trace) (*groth16.Proof, error) {
	dir, err := e.streamKeyDir()
	if err != nil {
		return nil, fmt.Errorf("engine: witness spill store: %w", err)
	}
	wf, err := r1cs.NewWitnessFile(dir, sys.NbWires, e.witnessPageBudget())
	if err != nil {
		return nil, fmt.Errorf("engine: witness spill store: %w", err)
	}
	defer wf.Close()
	if err := e.solve(res, tr, func() error { return sys.SolveSpilled(req.Public, req.Secret, wf, tr) }); err != nil {
		return nil, err
	}
	res.PublicInputs = make([]fr.Element, sys.NbPublic-1)
	if err := wf.ReadRange(res.PublicInputs, 1); err != nil {
		return nil, fmt.Errorf("engine: read spilled public inputs: %w", err)
	}
	sp := tr.Span("engine/prove")
	start := time.Now()
	// Out-of-core mode exists to bound resident memory; collect the
	// setup/solve phases' garbage and return the freed pages before
	// entering the bounded-memory prove, so its footprint is the
	// pipeline's, not the allocator's leftovers.
	debug.FreeOSMemory()
	proof, err := groth16.ProveStreamedSpilled(keys.CSFile, keys.Stream, wf, e.requestRand(req.Rand), tr)
	res.ProveTime = time.Since(start)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("engine: prove: %w", err)
	}
	return proof, nil
}

// solve runs one witness solve under the "engine/solve" span, metering
// it into res and the engine counters.
func (e *Engine) solve(res *Result, tr *obs.Trace, run func() error) error {
	sp := tr.Span("engine/solve")
	start := time.Now()
	err := run()
	res.SolveTime = time.Since(start)
	sp.End()
	if err != nil {
		return fmt.Errorf("engine: solve: %w", err)
	}
	e.solves.Add(1)
	e.solveNs.Add(int64(res.SolveTime))
	observeSeconds(mSolveSeconds, res.SolveTime)
	return nil
}

// ProveMany runs the requests on the engine's worker pool and returns
// one Result per request, order-preserving. Requests sharing a circuit
// digest trigger a single trusted setup no matter how the pool
// interleaves them. Failed requests carry their error in Result.Err;
// the rest of the batch completes.
func (e *Engine) ProveMany(reqs []Request) []*Result {
	results := make([]*Result, len(reqs))
	if err := e.acquire(); err != nil {
		for i := range reqs {
			results[i] = &Result{Name: reqs[i].Name, Err: err}
		}
		return results
	}
	defer e.release()
	workers := e.opts.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers <= 1 {
		for i := range reqs {
			results[i] = e.prove(reqs[i])
		}
		return results
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = e.prove(reqs[i])
			}
		}()
	}
	for i := range reqs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// Verify checks one proof against its public inputs.
func (e *Engine) Verify(vk *groth16.VerifyingKey, proof *groth16.Proof, public []fr.Element) error {
	return e.VerifyCtx(nil, vk, proof, public)
}

// VerifyCtx is Verify honoring request-scoped telemetry: a trace on ctx
// (obs.ContextWithTrace) receives the verifier's MSM and pairing spans.
func (e *Engine) VerifyCtx(ctx context.Context, vk *groth16.VerifyingKey, proof *groth16.Proof, public []fr.Element) error {
	if err := e.acquire(); err != nil {
		return err
	}
	defer e.release()
	start := time.Now()
	err := groth16.VerifyTraced(vk, proof, public, obs.TraceFrom(ctx))
	e.verifies.Add(1)
	mVerifiesTotal.Inc()
	elapsed := time.Since(start)
	e.verifyNs.Add(int64(elapsed))
	observeSeconds(mVerifySeconds, elapsed)
	return err
}

// VerifyMany checks many proofs under one verifying key with a single
// combined pairing product (groth16.BatchVerify) — the verifier-side
// analogue of ProveMany.
func (e *Engine) VerifyMany(vk *groth16.VerifyingKey, proofs []*groth16.Proof, publicInputs [][]fr.Element) error {
	if err := e.acquire(); err != nil {
		return err
	}
	defer e.release()
	start := time.Now()
	err := groth16.BatchVerify(vk, proofs, publicInputs, e.requestRand(nil))
	e.verifies.Add(uint64(len(proofs)))
	mVerifiesTotal.Add(uint64(len(proofs)))
	elapsed := time.Since(start)
	e.verifyNs.Add(int64(elapsed))
	observeSeconds(mVerifySeconds, elapsed)
	return err
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Setups:        e.setups.Load(),
		MemHits:       e.memHits.Load(),
		DiskHits:      e.diskHits.Load(),
		Solves:        e.solves.Load(),
		Proves:        e.proves.Load(),
		SpillProves:   e.spillProves.Load(),
		Verifies:      e.verifies.Load(),
		Aggregates:    e.aggregates.Load(),
		SetupTime:     time.Duration(e.setupNs.Load()),
		SolveTime:     time.Duration(e.solveNs.Load()),
		ProveTime:     time.Duration(e.proveNs.Load()),
		VerifyTime:    time.Duration(e.verifyNs.Load()),
		AggregateTime: time.Duration(e.aggregateNs.Load()),
	}
}

// CachedKeys reports the number of key pairs resident in memory.
func (e *Engine) CachedKeys() int { return e.cache.len() }

// ClearCache releases every in-memory key pair (proving keys can run to
// hundreds of MB) so long-lived embedders can reclaim the memory; the
// disk tier, when configured, is left intact and repopulates the memory
// tier on the next request.
func (e *Engine) ClearCache() { e.cache.clear() }

// requestRand resolves the effective randomness source for one request.
// User-supplied readers (deterministic test sources, typically
// math/rand) are not concurrency-safe, and the same reader may back
// several requests running on different pool workers, so all of them
// share one package-wide lock. crypto/rand — the production default —
// bypasses it.
func (e *Engine) requestRand(override io.Reader) io.Reader {
	r := override
	if r == nil {
		r = e.opts.Rand
	}
	if r == rand.Reader {
		return r // crypto/rand is already concurrency-safe
	}
	return &lockedReader{r: r}
}

// userRandMu serializes every read from user-supplied randomness
// sources, whichever requests they arrived with.
var userRandMu sync.Mutex

type lockedReader struct {
	r io.Reader
}

func (l *lockedReader) Read(p []byte) (int, error) {
	userRandMu.Lock()
	defer userRandMu.Unlock()
	return l.r.Read(p)
}

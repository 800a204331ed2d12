package engine

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/groth16"
	"zkrownn/internal/r1cs"
)

// cachedPKPath returns the framed proving-key file the disk tier wrote
// for the given digest.
func cachedPKPath(t *testing.T, dir, digest string) string {
	t.Helper()
	p := filepath.Join(dir, digest+".pk")
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("expected cached proving key at %s: %v", p, err)
	}
	return p
}

// TestDiskCacheRejectsTruncatedKey corrupts the cached proving key by
// cutting it short; a fresh engine must treat that as a cache miss and
// re-run setup rather than proving with a mangled key or hard-failing.
func TestDiskCacheRejectsTruncatedKey(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(31))

	e1 := New(Options{CacheDir: dir, Rand: rng})
	r1, err := e1.Prove(cubicRequest(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	pkPath := cachedPKPath(t, dir, r1.Digest)
	info, err := os.Stat(pkPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(pkPath, info.Size()/2); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{CacheDir: dir, Rand: rng})
	r2, err := e2.Prove(cubicRequest(5, 4))
	if err != nil {
		t.Fatalf("prove over truncated cache file: %v", err)
	}
	if r2.CacheHit {
		t.Fatal("truncated key file must not count as a cache hit")
	}
	st := e2.Stats()
	if st.Setups != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v, want 1 setup and 0 disk hits after truncation", st)
	}
	if err := e2.Verify(r2.Keys.VK, r2.Proof, publicOf(cubicWitness(5, 4))); err != nil {
		t.Fatalf("re-setup proof rejected: %v", err)
	}
	// The repaired entry must have been rewritten: a third engine now
	// hits disk again.
	e3 := New(Options{CacheDir: dir, Rand: rng})
	r3, err := e3.Prove(cubicRequest(5, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || e3.Stats().DiskHits != 1 {
		t.Fatalf("rewritten cache entry not served from disk (hit=%v, stats=%+v)", r3.CacheHit, e3.Stats())
	}
}

// TestDiskCacheRejectsBitFlip flips one payload byte inside the frame;
// the CRC must catch it at open time and force a re-setup.
func TestDiskCacheRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(32))

	e1 := New(Options{CacheDir: dir, Rand: rng})
	r1, err := e1.Prove(cubicRequest(7, 3))
	if err != nil {
		t.Fatal(err)
	}
	pkPath := cachedPKPath(t, dir, r1.Digest)
	raw, err := os.ReadFile(pkPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(pkPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := New(Options{CacheDir: dir, Rand: rng})
	r2, err := e2.Prove(cubicRequest(7, 4))
	if err != nil {
		t.Fatalf("prove over corrupted cache file: %v", err)
	}
	if r2.CacheHit || e2.Stats().Setups != 1 {
		t.Fatalf("bit-flipped key served from cache (hit=%v, stats=%+v)", r2.CacheHit, e2.Stats())
	}
	if err := e2.Verify(r2.Keys.VK, r2.Proof, publicOf(cubicWitness(7, 4))); err != nil {
		t.Fatalf("re-setup proof rejected: %v", err)
	}
}

// TestStreamedEngineRoundTrip forces out-of-core mode with a 1-byte
// memory budget and checks the whole lifecycle: spilled setup, streamed
// prove, in-memory reuse, and a disk hit after restart.
func TestStreamedEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(33))

	e1 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e1.Close()
	r1, err := e1.Prove(cubicRequest(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Keys.Stream == nil || !r1.Keys.Streamed() {
		t.Fatal("1-byte budget must force a streamed proving key")
	}
	if r1.Keys.PK != nil {
		t.Fatal("streamed key pair must not hold the in-memory proving key")
	}
	if r1.Keys.PKSizeBytes() <= 0 {
		t.Fatal("streamed key pair must report its raw on-disk size")
	}
	if err := e1.Verify(r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
		t.Fatalf("streamed proof rejected: %v", err)
	}

	// Same digest again: the open streamed key is reused from memory.
	r2, err := e1.Prove(cubicRequest(5, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("second streamed prove must hit the in-memory key cache")
	}
	st := e1.Stats()
	if st.Setups != 1 || st.SpillProves != 2 {
		t.Fatalf("stats = %+v, want 1 setup and 2 out-of-core proves", st)
	}

	// Restart: the spilled raw key in CacheDir serves a cold engine.
	e2 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e2.Close()
	r3, err := e2.Prove(cubicRequest(5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Keys.Stream == nil {
		t.Fatalf("restarted streamed engine must stream from the disk cache (hit=%v)", r3.CacheHit)
	}
	st2 := e2.Stats()
	if st2.Setups != 0 || st2.DiskHits != 1 {
		t.Fatalf("restart stats = %+v, want 0 setups and 1 disk hit", st2)
	}
	// Cross-check against the original engine's VK.
	if err := e2.Verify(r1.Keys.VK, r3.Proof, publicOf(cubicWitness(5, 4))); err != nil {
		t.Fatalf("streamed proof from restart rejected by original VK: %v", err)
	}
}

// TestMidBudgetProofMatchesInMemoryEngine sets the memory budget below
// the raw proving key but above the constraint system plus one witness.
// The engine has exactly two modes, so such a budget must prove fully
// out-of-core — not stream the key alone — and still emit the in-memory
// proof's bytes.
func TestMidBudgetProofMatchesInMemoryEngine(t *testing.T) {
	sys := cubicSystem(5)
	raw, err := groth16.RawPKSizeBytes(sys)
	if err != nil {
		t.Fatal(err)
	}
	resident := r1cs.CSRRawSizeBytes(sys) + int64(sys.NbWires)*int64(8*fr.Limbs)
	if resident >= raw {
		t.Fatalf("CSR + witness (%d B) must undercut the raw key (%d B)", resident, raw)
	}

	inMem := New(Options{Rand: rand.New(rand.NewSource(34))})
	rIn, err := inMem.Prove(cubicRequest(5, 3))
	if err != nil {
		t.Fatal(err)
	}

	mid := New(Options{CacheDir: t.TempDir(), MemoryBudget: (resident + raw) / 2, Rand: rand.New(rand.NewSource(34))})
	defer mid.Close()
	rMid, err := mid.Prove(cubicRequest(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st := mid.Stats(); st.SpillProves != 1 || rMid.Keys.CSFile == nil || rMid.Witness != nil {
		t.Fatalf("mid budget did not prove fully out-of-core (stats %+v, csr file %v, resident witness %v)",
			st, rMid.Keys.CSFile != nil, rMid.Witness != nil)
	}
	var want, got bytes.Buffer
	if _, err := rIn.Proof.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	if _, err := rMid.Proof.WriteTo(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("out-of-core engine proof bytes diverge from the in-memory engine proof")
	}
}

// TestSpilledEngineRoundTrip forces full out-of-core mode (streamed
// key, CSR section file, disk-backed witness tape) and checks the whole
// lifecycle: spilled solve+prove with PublicInputs but no resident
// witness, a digest-only repeat against the stripped cached circuit, a
// restart served by the on-disk key and CSR files, and recovery from a
// corrupted CSR file.
func TestSpilledEngineRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(36))
	sys := cubicSystem(5)
	asg := sys.WitnessAssignment(cubicWitness(5, 3))

	e1 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e1.Close()
	r1, err := e1.Prove(Request{System: sys, Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Keys.Streamed() || r1.Keys.CSFile == nil {
		t.Fatal("1-byte budget must force full out-of-core mode")
	}
	if r1.Witness != nil {
		t.Fatal("spilled prove must not return a resident witness")
	}
	want := publicOf(cubicWitness(5, 3))
	if len(r1.PublicInputs) != len(want) || !r1.PublicInputs[0].Equal(&want[0]) {
		t.Fatalf("PublicInputs = %v, want %v", r1.PublicInputs, want)
	}
	if err := e1.Verify(r1.Keys.VK, r1.Proof, r1.PublicInputs); err != nil {
		t.Fatalf("spilled proof rejected: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, r1.Digest+".csr")); err != nil {
		t.Fatalf("expected CSR spill file beside the key: %v", err)
	}
	if st := e1.Stats(); st.SpillProves != 1 || st.Solves != 1 {
		t.Fatalf("stats = %+v, want 1 spilled prove and 1 solve", st)
	}

	// The cache must hold a solver-only circuit copy, and a digest-only
	// request must still solve and prove through the spill files.
	if cs, ok := e1.Circuit(r1.Digest); !ok || !cs.Stripped() {
		t.Fatalf("cached circuit not stripped (ok=%v)", ok)
	}
	asg7 := sys.WitnessAssignment(cubicWitness(5, 7))
	r2, err := e1.Prove(Request{Digest: r1.Digest, Public: asg7.Public, Secret: asg7.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit {
		t.Fatal("digest-only spilled prove must hit the key cache")
	}
	if err := e1.Verify(r1.Keys.VK, r2.Proof, r2.PublicInputs); err != nil {
		t.Fatalf("digest-only spilled proof rejected: %v", err)
	}

	// Restart: spilled key and CSR file both reopen from CacheDir.
	e2 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e2.Close()
	r3, err := e2.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Keys.CSFile == nil {
		t.Fatalf("restart must stream keys and CSR from disk (hit=%v, csr file=%v)", r3.CacheHit, r3.Keys.CSFile != nil)
	}
	if err := e2.Verify(r1.Keys.VK, r3.Proof, r3.PublicInputs); err != nil {
		t.Fatalf("restarted spilled proof rejected by original VK: %v", err)
	}

	// A corrupted CSR file is rewritten from the resent system.
	csrFile := filepath.Join(dir, r1.Digest+".csr")
	raw, err := os.ReadFile(csrFile)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(csrFile, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	e3 := New(Options{CacheDir: dir, MemoryBudget: 1, Rand: rng})
	defer e3.Close()
	r4, err := e3.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatalf("prove over corrupted CSR file: %v", err)
	}
	if err := e3.Verify(r1.Keys.VK, r4.Proof, r4.PublicInputs); err != nil {
		t.Fatalf("proof after CSR rewrite rejected: %v", err)
	}
}

// TestSpilledProofMatchesInMemoryEngine is the engine-level oracle for
// full out-of-core mode: same circuit, same randomness, identical proof
// points whether everything is resident or nothing is.
func TestSpilledProofMatchesInMemoryEngine(t *testing.T) {
	sys := cubicSystem(5)
	asg := sys.WitnessAssignment(cubicWitness(5, 3))

	inMem := New(Options{Rand: rand.New(rand.NewSource(37))})
	rIn, err := inMem.Prove(Request{System: sys, Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}

	spilled := New(Options{CacheDir: t.TempDir(), MemoryBudget: 1, Rand: rand.New(rand.NewSource(37))})
	defer spilled.Close()
	rSp, err := spilled.Prove(Request{System: cubicSystem(5), Public: asg.Public, Secret: asg.Secret})
	if err != nil {
		t.Fatal(err)
	}
	if !rSp.Keys.Streamed() {
		t.Fatal("expected full out-of-core mode")
	}
	if !rIn.Proof.Ar.Equal(&rSp.Proof.Ar) || !rIn.Proof.Bs.Equal(&rSp.Proof.Bs) || !rIn.Proof.Krs.Equal(&rSp.Proof.Krs) {
		t.Fatal("spilled engine proof diverges from in-memory engine proof")
	}
	if len(rIn.PublicInputs) != len(rSp.PublicInputs) || !rIn.PublicInputs[0].Equal(&rSp.PublicInputs[0]) {
		t.Fatal("spilled engine instance diverges from in-memory engine instance")
	}
}

// TestStreamedEngineTempSpill exercises streaming without a CacheDir:
// the raw key spills to a temp directory that Close removes.
func TestStreamedEngineTempSpill(t *testing.T) {
	e := New(Options{MemoryBudget: 1, Rand: rand.New(rand.NewSource(35))})
	r1, err := e.Prove(cubicRequest(5, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Keys.Streamed() {
		t.Fatal("1-byte budget must stream even without a cache dir")
	}
	if err := e.Verify(r1.Keys.VK, r1.Proof, publicOf(cubicWitness(5, 3))); err != nil {
		t.Fatalf("streamed proof rejected: %v", err)
	}
	e.streamMu.Lock()
	spill := e.streamDir
	e.streamMu.Unlock()
	if spill == "" {
		t.Fatal("expected a temp spill directory")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Fatalf("Close must remove the temp spill dir %s (stat err: %v)", spill, err)
	}
}

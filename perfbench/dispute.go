package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/pairing"
	"zkrownn/internal/core"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// disputeCircuit is one architecture's compiled extraction circuit
// (paper construction: the suspect's weights are public inputs).
type disputeCircuit struct {
	class string // "light" (dense MLP) or "heavy" (conv CNN)
	o     *owner
	art   *core.Artifact
}

// disputeSetup is everything the owner's prover holds before the first
// dispute: both circuits and an engine with their keys.
type disputeSetup struct {
	eng      *engine.Engine
	dir      string
	circuits []*disputeCircuit
	compileS float64
	pkRawB   int64
	csrB     int64
	csrS     float64 // traced: time to write both CSR section files
}

func (s *disputeSetup) close() {
	s.eng.Close()
	os.RemoveAll(s.dir)
}

// setupDispute generates the owner's models and keys from the seed,
// compiles both circuits and runs their trusted setups (streamed to disk
// under a 1-byte memory budget when ooc).
func setupDispute(cfg *runConfig, ooc bool, dir string, tr *tracer) (*disputeSetup, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	opts := engine.Options{CacheEntries: 4, Rand: rand.New(rand.NewSource(cfg.seed + 1))}
	if ooc {
		opts.CacheDir = dir
		opts.MemoryBudget = 1
	}
	s := &disputeSetup{eng: engine.New(opts), dir: dir}
	for _, c := range []struct{ kind, class string }{{"mlp", "light"}, {"cnn", "heavy"}} {
		o, err := newOwner(c.kind, cfg.sz, rng)
		if err != nil {
			s.close()
			return nil, err
		}
		start := time.Now()
		art, err := core.ExtractionCircuit(o.q, o.circuitKey(o.key), cfg.sz.maxErrors)
		s.compileS += time.Since(start).Seconds()
		if err != nil {
			s.close()
			return nil, fmt.Errorf("compile %s: %w", c.kind, err)
		}
		art.Witness = nil
		if s.pkRawB, err = addPKRaw(s.pkRawB, art.System); err != nil {
			s.close()
			return nil, err
		}
		s.csrB += r1cs.CSRRawSizeBytes(art.System)
		if tr != nil && ooc {
			start := time.Now()
			if err := r1cs.WriteCompiledSystemFile(filepath.Join(dir, "probe.csr"), art.System); err != nil {
				s.close()
				return nil, err
			}
			s.csrS += time.Since(start).Seconds()
			os.Remove(filepath.Join(dir, "probe.csr"))
		}
		if _, _, err := s.eng.Keys(art.System, nil); err != nil {
			s.close()
			return nil, fmt.Errorf("setup %s: %w", c.kind, err)
		}
		// Fully out-of-core: the engine reads constraint rows from its
		// spill file, so the owner keeps only the solver program.
		if ooc && s.eng.SpillsConstraintSystem(art.System) {
			art.System = art.System.StripForSolve()
		}
		s.circuits = append(s.circuits, &disputeCircuit{class: c.class, o: o, art: art})
	}
	return s, nil
}

func addPKRaw(acc int64, sys *r1cs.CompiledSystem) (int64, error) {
	n, err := groth16.RawPKSizeBytes(sys)
	return acc + n, err
}

// disputeRun is the measured phase's state.
type disputeRun struct {
	cfg   *runConfig
	ooc   bool
	s     *disputeSetup
	tr    *tracer
	rng   *rand.Rand // suspects
	prng  *rand.Rand // prover randomness
	out   *outcome
	prove map[string][]float64 // bind → proof, ms, per class (untraced ops)
	parts map[string][]float64 // traced ops: bind+keys+solve+prove, ms
	opsMS map[string][]float64 // traced ops: whole dispute, ms
	untMS map[string][]float64 // untraced ops: whole dispute, ms
}

func runDispute(cfg *runConfig, ooc bool) (*outcome, *tracer, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, setupS, err := repeatSetup(cfg, func(rep int) (*disputeSetup, error) {
		return setupDispute(cfg, ooc, filepath.Join(cfg.workDir, fmt.Sprintf("setup%d", rep)), tr)
	}, (*disputeSetup).close)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()

	r := &disputeRun{
		cfg: cfg, ooc: ooc, s: s, tr: tr,
		rng:   rand.New(rand.NewSource(cfg.seed + 2)),
		prng:  rand.New(rand.NewSource(cfg.seed + 3)),
		out:   newOutcome(),
		prove: map[string][]float64{}, parts: map[string][]float64{},
		opsMS: map[string][]float64{}, untMS: map[string][]float64{},
	}
	statsBefore := s.eng.Stats()
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	start := time.Now()
	deadline := start.Add(cfg.duration())
	correct := 0
	for i := 0; ; i++ {
		// Every class is attempted at least once, so a run in which every
		// dispute fails still ends and reports its failures.
		if i >= len(s.circuits) && time.Now().After(deadline) {
			break
		}
		c := s.circuits[i%len(s.circuits)]
		// In a traced run every other pair of disputes is decomposed into
		// its layer calls; the rest run through Engine.Prove untraced, so
		// the run can report engine self time and tracing overhead.
		decomposed := tr != nil && (i/len(s.circuits))%2 == 1
		ok, err := r.dispute(c, i, decomposed)
		r.out.attempted++
		if err != nil {
			r.out.fail(fmt.Sprintf("dispute %d (%s): %v", i, c.o.kind, err))
			continue
		}
		if !ok {
			r.out.fail(fmt.Sprintf("dispute %d (%s): claim bit differs from the native extraction", i, c.o.kind))
			continue
		}
		correct++
	}
	elapsed := time.Since(start).Seconds()
	peak := rss.stopMiB()

	m := r.out.metrics
	m.set("setup_s", "s", setupS)
	m.set("peak_rss_mb", "MiB", peak)
	m.set("light_p50_ms", "ms", median(r.prove["light"]))
	m.set("heavy_p50_ms", "ms", median(r.prove["heavy"]))
	m.set("ops_per_s", "1/s", float64(correct)/elapsed)
	r.out.samples = fmt.Sprintf("disputes: %d light, %d heavy in %.1fs (constraints %d / %d)",
		len(r.prove["light"])+len(r.parts["light"]), len(r.prove["heavy"])+len(r.parts["heavy"]), elapsed,
		s.circuits[0].art.System.NbConstraints(), s.circuits[1].art.System.NbConstraints())

	st := s.eng.Stats()
	if proves := st.Proves - statsBefore.Proves; proves > 0 {
		m.set("engine.spill_proves_frac", "ratio", float64(st.SpillProves-statsBefore.SpillProves)/float64(proves))
	}
	if tr != nil {
		r.layerMetrics(statsBefore)
	}
	return r.out, tr, nil
}

// dispute runs one ownership dispute against a fresh suspect and reports
// whether the proved claim bit matches the native extraction.
func (r *disputeRun) dispute(c *disputeCircuit, op int, decomposed bool) (bool, error) {
	_, qs, err := c.o.suspect(r.rng)
	if err != nil {
		return false, err
	}
	want, err := referenceClaim(qs, c.o.key, r.cfg.sz.maxErrors)
	if err != nil {
		return false, err
	}
	if r.ooc {
		// A fresh `zkrownn prove -keycache` process starts with an
		// empty memory tier.
		r.s.eng.DropMemoryCache()
	}
	var pub []fr.Element
	start := time.Now()
	if decomposed {
		pub, err = r.decomposedDispute(c, op, qs, start)
	} else {
		var asg r1cs.Assignment
		if asg, err = r.bind(c, qs); err != nil {
			return false, err
		}
		res, perr := r.s.eng.Prove(c.art.RequestFor(asg, r.prng))
		if perr != nil {
			return false, perr
		}
		r.prove[c.class] = append(r.prove[c.class], msSince(start))
		if err = r.s.eng.Verify(res.Keys.VK, res.Proof, res.PublicInputs); err != nil {
			return false, err
		}
		pub = res.PublicInputs
	}
	if err != nil {
		return false, err
	}
	claims, err := core.ClaimBits(pub, 1)
	if err != nil {
		return false, err
	}
	if !decomposed {
		r.untMS[c.class] = append(r.untMS[c.class], msSince(start))
	}
	return claims[0] == want, nil
}

// bind binds the suspect's weights to the circuit's public inputs.
func (r *disputeRun) bind(c *disputeCircuit, qs *nn.QuantizedNetwork) (r1cs.Assignment, error) {
	asg, err := core.BindSuspectInputs(c.art, qs)
	if r.cfg.breakProve {
		asg.Public = nil
	}
	return asg, err
}

// decomposedDispute is Engine.Prove + Engine.Verify taken apart into the
// public calls of each layer, each inside a benchmark-side span, followed
// by stand-alone probes of the curve, poly and pairing layers shaped like
// this dispute.
func (r *disputeRun) decomposedDispute(c *disputeCircuit, op int, qs *nn.QuantizedNetwork, start time.Time) ([]fr.Element, error) {
	tr, sys := r.tr, c.art.System
	// The root stays open on error paths; open spans are ignored.
	root := tr.begin("op."+c.class, op, -1)
	var asg r1cs.Assignment
	var kp *engine.KeyPair
	var err error
	if err = tr.timed("core.bind", op, root, func() (e error) { asg, e = r.bind(c, qs); return }); err != nil {
		return nil, err
	}
	if err = tr.timed("engine.keys", op, root, func() (e error) { kp, _, e = r.s.eng.Keys(sys, nil); return }); err != nil {
		return nil, err
	}
	var proof *groth16.Proof
	var witness, pub []fr.Element
	if !r.ooc {
		if err = tr.timed("r1cs.solve", op, root, func() (e error) { witness, e = sys.Solve(asg.Public, asg.Secret); return }); err != nil {
			return nil, err
		}
		pub = sys.PublicValues(witness)
		if err = tr.timed("groth16.prove", op, root, func() (e error) {
			proof, e = groth16.Prove(sys, kp.PK, witness, r.prng)
			return
		}); err != nil {
			return nil, err
		}
	} else {
		wf, err := r1cs.NewWitnessFile(r.s.dir, sys.NbWires, 0)
		if err != nil {
			return nil, err
		}
		defer wf.Close()
		if err = tr.timed("r1cs.solve_spilled", op, root, func() error {
			return sys.SolveSpilled(asg.Public, asg.Secret, wf, nil)
		}); err != nil {
			return nil, err
		}
		pub = make([]fr.Element, sys.NbPublic-1)
		if err := wf.ReadRange(pub, 1); err != nil {
			return nil, err
		}
		if err = tr.timed("groth16.prove_spilled", op, root, func() (e error) {
			proof, e = groth16.ProveStreamedSpilled(kp.CSFile, kp.Stream, wf, r.prng, nil)
			return
		}); err != nil {
			return nil, err
		}
		witness = make([]fr.Element, sys.NbWires)
		if err := wf.ReadRange(witness, 0); err != nil {
			return nil, err
		}
	}
	r.parts[c.class] = append(r.parts[c.class], msSince(start))
	if err = tr.timed("groth16.verify."+c.class, op, root, func() error { return groth16.Verify(kp.VK, proof, pub) }); err != nil {
		return nil, err
	}
	tr.end(root)
	r.opsMS[c.class] = append(r.opsMS[c.class], msSince(start))
	return pub, r.probe(c, op, kp, witness, pub, proof)
}

// probe times stand-alone calls into the curve, poly and pairing layers
// with this dispute's key bases, witness and instance.
func (r *disputeRun) probe(c *disputeCircuit, op int, kp *engine.KeyPair, witness, pub []fr.Element, proof *groth16.Proof) error {
	tr := r.tr
	if !r.ooc {
		tr.timed("curve.msm_g1", op, -1, func() error { curve.MultiExpG1(kp.PK.A, witness); return nil })
		tr.timed("curve.msm_g2", op, -1, func() error { curve.MultiExpG2(kp.PK.B2, witness); return nil })
		d, err := poly.NewDomain(kp.PK.DomainSize)
		if err != nil {
			return err
		}
		v := randomVector(r.prng, int(d.N))
		tr.timed("poly.fft", op, -1, func() error { d.IFFT(v); d.FFTCoset(v); d.IFFTCoset(v); return nil })
		r.out.metrics.set("poly.domain_size", "count", max(r.out.metrics.get("poly.domain_size"), float64(d.N)))
	} else {
		if err := r.probeStreamed(op, c.art.System.DigestHex(), witness, kp.Stream.DomainSize()); err != nil {
			return err
		}
	}
	probeVerifier(tr, op, kp.VK, pub, proof)
	return nil
}

// probeStreamed times the streamed MSMs over the spilled key's A and B2
// query sections and the file-backed FFTs at the key's domain size.
func (r *disputeRun) probeStreamed(op int, digest string, witness []fr.Element, domainSize uint64) error {
	tr := r.tr
	f, err := os.Open(filepath.Join(r.s.dir, digest+".pk"))
	if err != nil {
		return err
	}
	defer f.Close()
	offA, offB2, err := rawKeyOffsets(f)
	if err != nil {
		return err
	}
	chunk := curve.DefaultStreamChunk
	c := curve.StreamWindowSize(len(witness), chunk)
	if err := tr.timed("curve.msm_g1_stream", op, -1, func() error {
		_, e := curve.MultiExpG1StreamScalars(curve.NewG1RawSource(f, offA), witness, c, chunk)
		return e
	}); err != nil {
		return err
	}
	if err := tr.timed("curve.msm_g2_stream", op, -1, func() error {
		_, e := curve.MultiExpG2StreamScalars(curve.NewG2RawSource(f, offB2), witness, c, chunk)
		return e
	}); err != nil {
		return err
	}
	d, err := poly.NewDomain(domainSize)
	if err != nil {
		return err
	}
	vf, err := poly.CreateVecFile(r.s.dir, int(d.N))
	if err != nil {
		return err
	}
	defer vf.Close()
	if err := vf.WriteAt(randomVector(r.prng, int(d.N)), 0); err != nil {
		return err
	}
	buf := make([]fr.Element, d.N/4)
	r.out.metrics.set("poly.domain_size", "count", max(r.out.metrics.get("poly.domain_size"), float64(d.N)))
	return tr.timed("poly.fft_file", op, -1, func() error {
		if err := d.IFFTFile(vf, buf); err != nil {
			return err
		}
		if err := d.FFTCosetFile(vf, buf); err != nil {
			return err
		}
		return d.IFFTCosetFile(vf, buf)
	})
}

// rawKeyOffsets locates the A and B2 query sections of a spilled proving
// key: a 16-byte integrity frame, then the raw key (a fixed header of
// domain size and α/β/δ points, then length-prefixed A, B1, K, Z (G1) and
// B2 (G2) sections).
func rawKeyOffsets(f *os.File) (offA, offB2 int64, err error) {
	const frame = 16
	off := int64(frame + 16 + 3*curve.G1UncompressedSize + 2*curve.G2UncompressedSize)
	var cnt [4]byte
	for i := 0; i < 5; i++ {
		if _, err := f.ReadAt(cnt[:], off); err != nil {
			return 0, 0, fmt.Errorf("spilled key section %d: %w", i, err)
		}
		n := int64(binary.LittleEndian.Uint32(cnt[:]))
		switch i {
		case 0:
			offA = off + 4
		case 4:
			offB2 = off + 4
		}
		off += 4 + n*curve.G1UncompressedSize
	}
	return offA, offB2, nil
}

// probeVerifier times the verifier's two layers on one proof: the IC
// multi-exponentiation over the instance and the pairing check.
func probeVerifier(tr *tracer, op int, vk *groth16.VerifyingKey, pub []fr.Element, proof *groth16.Proof) {
	var acc curve.G1Jac
	tr.timed("curve.msm_ic", op, -1, func() error { acc = curve.MultiExpG1(vk.IC[1:], pub); return nil })
	var ic0 curve.G1Jac
	ic0.FromAffine(&vk.IC[0])
	acc.AddAssign(&ic0)
	var accAff, negA curve.G1Affine
	accAff.FromJacobian(&acc)
	negA.Neg(&proof.Ar)
	tr.timed("pairing.check", op, -1, func() error {
		pairing.PairingCheckMul(
			[]*curve.G1Affine{&negA, &accAff, &proof.Krs},
			[]*curve.G2Affine{&proof.Bs, &vk.GammaG2, &vk.DeltaG2},
			&vk.AlphaBeta)
		return nil
	})
}

func randomVector(rng *rand.Rand, n int) []fr.Element {
	v := make([]fr.Element, n)
	for i := range v {
		v[i].SetUint64(rng.Uint64())
	}
	return v
}

// layerMetrics derives the per-layer metrics of a traced dispute run.
func (r *disputeRun) layerMetrics(before engine.Stats) {
	m, tr, s := r.out.metrics, r.tr, r.s
	m.set("core.compile_s", "s", s.compileS)
	m.set("core.bind_ms", "ms", tr.p50MS("core.bind"))
	var cons, pubs int
	for _, c := range s.circuits {
		cons += c.art.System.NbConstraints()
		pubs += c.art.System.NbPublic - 1
	}
	m.set("core.constraints", "count", float64(cons))
	m.set("core.public_inputs", "count", float64(pubs))
	m.set("r1cs.solve_ms", "ms", tr.p50MS("r1cs.solve"))
	m.set("r1cs.solve_spilled_ms", "ms", tr.p50MS("r1cs.solve_spilled"))
	m.set("r1cs.csr_write_s", "s", s.csrS)
	m.set("r1cs.csr_mb", "MiB", float64(s.csrB)/(1<<20))
	setupS := before.SetupTime.Seconds()
	if r.ooc {
		m.set("groth16.setup_streamed_s", "s", setupS)
	} else {
		m.set("groth16.setup_s", "s", setupS)
	}
	m.set("groth16.prove_ms", "ms", tr.p50MS("groth16.prove"))
	m.set("groth16.prove_spilled_ms", "ms", tr.p50MS("groth16.prove_spilled"))
	m.set("groth16.verify_light_ms", "ms", tr.p50MS("groth16.verify.light"))
	m.set("groth16.verify_heavy_ms", "ms", tr.p50MS("groth16.verify.heavy"))
	m.set("groth16.pk_raw_mb", "MiB", float64(s.pkRawB)/(1<<20))
	for _, name := range []string{"curve.msm_g1", "curve.msm_g2", "curve.msm_g1_stream", "curve.msm_g2_stream",
		"curve.msm_ic", "poly.fft", "poly.fft_file", "pairing.check"} {
		m.set(name+"_ms", "ms", tr.p50MS(name))
	}
	m.set("engine.keys_ms", "ms", tr.p50MS("engine.keys"))
	var self, overhead []float64
	for _, class := range []string{"light", "heavy"} {
		if len(r.prove[class]) > 0 && len(r.parts[class]) > 0 {
			self = append(self, median(r.prove[class])-median(r.parts[class]))
		}
		if len(r.untMS[class]) > 0 && len(r.opsMS[class]) > 0 {
			overhead = append(overhead, median(r.opsMS[class])/median(r.untMS[class])-1)
		}
	}
	m.set("engine.self_ms", "ms", mean(self))
	m.set("trace.overhead_frac", "ratio", mean(overhead))
	m.set("trace.unattributed_frac", "ratio", tr.unattributedFrac("op."))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

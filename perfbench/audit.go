package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"zkrownn"
	"zkrownn/client"
	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/bn254/ipp"
	"zkrownn/internal/core"
	"zkrownn/internal/engine"
	"zkrownn/internal/groth16"
	"zkrownn/internal/service"
	"zkrownn/internal/watermark"
)

// auditors is the number of concurrent auditor clients (and connections).
const auditors = 2

// proofBase is one proved claim; the audit sweeps send re-randomised
// copies of it, so no request repeats a proof.
type proofBase struct {
	proof groth16.Proof
	pub   []fr.Element
	claim bool // the native extraction's verdict
}

// auditClass is one registration of the owner's model.
type auditClass struct {
	name       string // "committed" or "open"
	id         string
	vk         *groth16.VerifyingKey
	genuine    *proofBase
	falseClaim *proofBase // a valid proof whose claim bit is 0
}

type auditSetup struct {
	eng       *engine.Engine
	srv       *service.Server
	hs        *http.Server
	cl        *client.Client
	wire      *wireCounter
	classes   []*auditClass // committed, open
	registerS float64
	srsS      float64
	compileS  float64
	pkRawB    int64
	cons      int
	pubs      int
}

func (s *auditSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	s.wire.base.CloseIdleConnections()
	s.srv.Close()
	s.eng.Close()
}

// setupAudit starts the service on loopback, registers the owner's model
// committed and open, proves one genuine and one valid false claim per
// registration, and warms the aggregation SRS.
func setupAudit(cfg *runConfig) (s *auditSetup, err error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	o, err := newOwner("mlp", cfg.sz, rng)
	if err != nil {
		return nil, err
	}
	eng := engine.New(engine.Options{CacheEntries: 4, Rand: rand.New(rand.NewSource(cfg.seed + 1))})
	srv, err := service.New(service.Options{Engine: eng})
	if err != nil {
		eng.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, err
	}
	wire := newWireCounter()
	s = &auditSetup{eng: eng, srv: srv, hs: &http.Server{Handler: srv}, wire: wire}
	go s.hs.Serve(ln)
	defer func() {
		if err != nil {
			s.close()
			s = nil
		}
	}()
	if s.cl, err = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: wire})); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	m := cfg.sz.maxErrors

	for _, committed := range []bool{true, false} {
		start := time.Now()
		reg, err := s.cl.RegisterModel(ctx, o.net, o.key, client.RegisterOptions{Committed: committed, MaxErrors: m})
		if err != nil {
			return nil, fmt.Errorf("register: %w", err)
		}
		s.registerS += time.Since(start).Seconds()
		s.cons += reg.Constraints
		s.pubs += reg.PublicInputs
		name := "open"
		if committed {
			name = "committed"
		}
		s.classes = append(s.classes, &auditClass{name: name, id: reg.ModelID, vk: reg.VK})
	}
	start := time.Now()
	if _, err := eng.AggregateSRSKey(); err != nil {
		return nil, err
	}
	s.srsS = time.Since(start).Seconds()

	// Committed: the owner's genuine claim through the service; a valid
	// false claim from another party's key, proved on the same keys.
	cc, oc := s.classes[0], s.classes[1]
	if cc.genuine, err = s.serviceProof(ctx, cc, nil, o.q, o.key, m); err != nil {
		return nil, err
	}
	other, err := o.newKey(rng)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	art, err := core.CommittedExtractionCircuit(o.q, o.circuitKey(other), m)
	if err != nil {
		return nil, err
	}
	openArt, err := core.ExtractionCircuit(o.q, o.circuitKey(o.key), m)
	if err != nil {
		return nil, err
	}
	s.compileS = time.Since(start).Seconds()
	for _, sys := range []*core.Artifact{art, openArt} {
		if s.pkRawB, err = addPKRaw(s.pkRawB, sys.System); err != nil {
			return nil, err
		}
	}
	if art.System.DigestHex() != cc.id {
		return nil, errors.New("the committed circuit built with another key differs from the registered one")
	}
	res, err := eng.Prove(art.Request(rand.New(rand.NewSource(cfg.seed + 4))))
	if err != nil {
		return nil, err
	}
	want, err := referenceClaim(o.q, other, m)
	if err != nil {
		return nil, err
	}
	if cc.falseClaim, err = checkedBase(res.Proof, res.PublicInputs, want); err != nil {
		return nil, err
	}

	// Open: a stolen copy and an independent model, proved by the service.
	netG, qG, err := o.derivative(rng)
	if err != nil {
		return nil, err
	}
	if oc.genuine, err = s.serviceProof(ctx, oc, netG, qG, o.key, m); err != nil {
		return nil, err
	}
	netF, qF, err := o.independent(rng)
	if err != nil {
		return nil, err
	}
	if oc.falseClaim, err = s.serviceProof(ctx, oc, netF, qF, o.key, m); err != nil {
		return nil, err
	}
	return s, nil
}

// serviceProof proves a claim through the service's prove queue and
// checks its claim bit against the native extraction on q.
func (s *auditSetup) serviceProof(ctx context.Context, c *auditClass, suspect *zkrownn.Model, q *zkrownn.QuantizedModel, k *watermark.Key, maxErrors int) (*proofBase, error) {
	ticket, err := s.cl.SubmitProve(ctx, c.id, suspect)
	if err != nil {
		return nil, err
	}
	job, err := s.cl.WaitForProof(ctx, ticket.JobID)
	if err != nil {
		return nil, err
	}
	want, err := referenceClaim(q, k, maxErrors)
	if err != nil {
		return nil, err
	}
	return checkedBase(job.Proof, job.PublicInputs, want)
}

func checkedBase(p *groth16.Proof, pub []fr.Element, want bool) (*proofBase, error) {
	claims, err := core.ClaimBits(pub, 1)
	if err != nil {
		return nil, err
	}
	if claims[0] != want {
		return nil, fmt.Errorf("proved claim bit %v differs from the native extraction's %v", claims[0], want)
	}
	return &proofBase{proof: *p, pub: pub, claim: want}, nil
}

// rerand yields distinct valid proofs of one statement: for a proof
// (A, B, C), (A, B + s·δ, C + s·A) verifies for every s. Successive
// proofs step s by one from a random start, which costs two point
// additions per proof.
type rerand struct {
	base  *proofBase
	a     curve.G1Jac
	delta curve.G2Jac
	b     curve.G2Jac
	c     curve.G1Jac
}

func newRerand(base *proofBase, vk *groth16.VerifyingKey, rng *rand.Rand) *rerand {
	r := &rerand{base: base}
	r.a.FromAffine(&base.proof.Ar)
	r.delta.FromAffine(&vk.DeltaG2)
	var s fr.Element
	s.SetUint64(rng.Uint64() | 1)
	var sd curve.G2Jac
	sd.ScalarMul(&r.delta, &s)
	r.b.FromAffine(&base.proof.Bs)
	r.b.AddAssign(&sd)
	var sa curve.G1Jac
	sa.ScalarMul(&r.a, &s)
	r.c.FromAffine(&base.proof.Krs)
	r.c.AddAssign(&sa)
	return r
}

func (r *rerand) next() *groth16.Proof {
	r.b.AddAssign(&r.delta)
	r.c.AddAssign(&r.a)
	p := &groth16.Proof{Ar: r.base.proof.Ar}
	p.Bs.FromJacobian(&r.b)
	p.Krs.FromJacobian(&r.c)
	return p
}

// claimItem is one entry of an auditor's claims list.
type claimItem struct {
	proof  *groth16.Proof
	pub    groth16.PublicInputs
	forged bool
	claim  bool // expected claim bit when not forged
}

// claimSource draws one auditor's claims: 45% genuine, 45% valid false
// claims, and 10% forgeries (a valid false claim whose public claim bit
// was flipped).
type claimSource struct {
	rng             *rand.Rand
	genuine, falseC *rerand
	mislabel        bool
}

func (c *claimSource) next() claimItem {
	u := c.rng.Float64()
	switch {
	case u < 0.45:
		return claimItem{proof: c.genuine.next(), pub: c.genuine.base.pub, claim: c.genuine.base.claim}
	case u < 0.9:
		return claimItem{proof: c.falseC.next(), pub: c.falseC.base.pub, claim: c.falseC.base.claim}
	}
	pub := append(groth16.PublicInputs(nil), c.falseC.base.pub...)
	if c.falseC.base.claim {
		pub[len(pub)-1].SetZero()
	} else {
		pub[len(pub)-1].SetOne()
	}
	if c.mislabel {
		// Self-test: the forgery is filed as a genuine claim.
		c.mislabel = false
		return claimItem{proof: c.falseC.next(), pub: pub, claim: !c.falseC.base.claim}
	}
	return claimItem{proof: c.falseC.next(), pub: pub, forged: true}
}

// auditRun is the measured phase's state.
type auditRun struct {
	cfg     *runConfig
	s       *auditSetup
	tr      *tracer
	out     *outcome
	mu      sync.Mutex
	lat     map[string][]float64 // client.Verify latency per class, ms (untraced requests)
	tlat    map[string][]float64 // traced requests
	forged  int
	correct map[string]int
	ops     atomic.Int64
}

func runAudit(cfg *runConfig) (*outcome, *tracer, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	s, setupS, err := repeatSetup(cfg, func(int) (*auditSetup, error) { return setupAudit(cfg) }, (*auditSetup).close)
	if err != nil {
		return nil, nil, err
	}
	defer s.close()
	a := &auditRun{cfg: cfg, s: s, tr: tr, out: newOutcome(),
		lat: map[string][]float64{}, tlat: map[string][]float64{}, correct: map[string]int{}}
	s.wire.tr = tr
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	before, err := s.cl.Stats(ctx)
	if err != nil {
		return nil, nil, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSSSampler()
	total := cfg.duration()
	start := time.Now()

	// Phases 1 and 2 (committed-instance and open-instance claims) run in
	// alternating rounds over the first four fifths of the run, so both
	// see the same machine and every round starts its auditors together.
	srcs := [][]*claimSource{a.claimSources(s.classes[0], 10), a.claimSources(s.classes[1], 20)}
	var phaseS [2]float64
	var wire [2]wireSnap // bytes and requests per class
	for r := 0; r < 2 || time.Now().Before(start.Add(total*4/5)); r++ {
		k := r % 2
		w := s.wire.snapshot()
		phaseS[k] += a.sweep(ctx, s.classes[k], srcs[k], time.Now().Add(sweepRound))
		wire[k] = wire[k].add(s.wire.snapshot(), w)
	}
	after, err := s.cl.Stats(ctx)
	if err != nil {
		return nil, nil, err
	}
	// Phase 3: registry aggregates of committed proofs, audited locally.
	folds, audits, aggProofs, aggPubs := a.aggregate(ctx, start.Add(total))
	peak := rss.stopMiB()

	m := a.out.metrics
	m.set("setup_s", "s", setupS)
	m.set("peak_rss_mb", "MiB", peak)
	m.set("light_p50_ms", "ms", median(a.lat["committed"]))
	m.set("heavy_p50_ms", "ms", median(a.lat["open"]))
	m.set("ops_per_s", "1/s", float64(a.correct["committed"])/phaseS[0])
	a.out.samples = fmt.Sprintf("verifies: %d committed, %d open (%d forged); %d aggregates of %d",
		len(a.lat["committed"])+len(a.tlat["committed"]), len(a.lat["open"])+len(a.tlat["open"]), a.forged,
		len(folds), cfg.sz.aggregateN)
	if tr != nil {
		if err := a.layerMetrics(before, after, wire, folds, audits, aggProofs, aggPubs); err != nil {
			return nil, nil, err
		}
	}
	return a.out, tr, nil
}

// sweepRound is the length of one round of a verify sweep. Both auditors
// start each round together, so the micro-batcher pairs their requests
// until they drift apart; many short rounds make the share of paired
// requests, which sets the latency, the same in every run.
const sweepRound = 500 * time.Millisecond

// claimSources draws each auditor's claims list for one class.
func (a *auditRun) claimSources(c *auditClass, seedOff int64) []*claimSource {
	srcs := make([]*claimSource, auditors)
	for g := range srcs {
		rng := rand.New(rand.NewSource(a.cfg.seed + seedOff + int64(g)))
		srcs[g] = &claimSource{rng: rng, genuine: newRerand(c.genuine, c.vk, rng), falseC: newRerand(c.falseClaim, c.vk, rng),
			mislabel: a.cfg.mislabel && g == 0}
	}
	return srcs
}

// sweep runs the auditors over one class's claims until the deadline and
// returns the round's length in seconds.
func (a *auditRun) sweep(ctx context.Context, c *auditClass, srcs []*claimSource, deadline time.Time) float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for _, src := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i == 0 || time.Now().Before(deadline); i++ {
				// A traced run traces every other request, so it can
				// report the tracing overhead.
				a.verifyOne(ctx, c, src.next(), a.tr != nil && i%2 == 1)
			}
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

type opKey struct{}

type opRef struct{ op, parent int }

func (a *auditRun) verifyOne(ctx context.Context, c *auditClass, it claimItem, traced bool) {
	op := int(a.ops.Add(1))
	var root int = -1
	if traced {
		root = a.tr.begin("op."+c.name, op, -1)
		ctx = context.WithValue(ctx, opKey{}, opRef{op, root})
	}
	start := time.Now()
	res, err := a.s.cl.Verify(ctx, c.id, it.proof, it.pub)
	ms := msSince(start)
	a.tr.end(root)

	a.mu.Lock()
	defer a.mu.Unlock()
	a.out.attempted++
	if it.forged {
		a.forged++
	}
	if traced {
		a.tlat[c.name] = append(a.tlat[c.name], ms)
	} else {
		a.lat[c.name] = append(a.lat[c.name], ms)
	}
	switch {
	case err != nil:
		a.out.fail(fmt.Sprintf("%s verify: %v", c.name, err))
	case it.forged && res.Valid:
		a.out.wrongAccept = true
		a.out.fail(fmt.Sprintf("%s verify: forged proof accepted", c.name))
	case !it.forged && !res.Valid:
		a.out.fail(fmt.Sprintf("%s verify: valid claim rejected: %s", c.name, res.Error))
	case !it.forged && res.Claim != it.claim:
		a.out.fail(fmt.Sprintf("%s verify: claim %v, native extraction says %v", c.name, res.Claim, it.claim))
	default:
		a.correct[c.name]++
	}
}

// aggregate folds sets of N committed proofs through client.Aggregate
// until the deadline (at least once) and audits each artifact locally.
func (a *auditRun) aggregate(ctx context.Context, deadline time.Time) (folds, audits []float64, proofs []*groth16.Proof, pubs [][]fr.Element) {
	c := a.s.classes[0]
	rng := rand.New(rand.NewSource(a.cfg.seed + 30))
	g, f := newRerand(c.genuine, c.vk, rng), newRerand(c.falseClaim, c.vk, rng)
	for first := true; first || time.Now().Before(deadline); first = false {
		n := a.cfg.sz.aggregateN
		proofs, pubs = make([]*groth16.Proof, n), make([][]fr.Element, n)
		wire := make([]zkrownn.Instance, n)
		want := make([]bool, n)
		for i := range proofs {
			r := g
			if i%2 == 1 {
				r = f
			}
			proofs[i], pubs[i], wire[i], want[i] = r.next(), r.base.pub, r.base.pub, r.base.claim
		}
		a.out.attempted++
		start := time.Now()
		res, err := a.s.cl.Aggregate(ctx, c.id, proofs, wire)
		fold := time.Since(start).Seconds()
		if err != nil {
			a.out.fail(fmt.Sprintf("aggregate: %v", err))
			continue
		}
		if !res.Valid || res.Aggregate == nil || len(res.Claims) != n {
			a.out.fail(fmt.Sprintf("aggregate of valid proofs refused: %s", res.Error))
			continue
		}
		start = time.Now()
		err = zkrownn.VerifyAggregateOwnership(res.SRSKey, c.vk, res.Aggregate, pubs)
		audit := msSince(start)
		if err != nil {
			a.out.fail(fmt.Sprintf("aggregate audit: %v", err))
			continue
		}
		ok := true
		for i := range want {
			ok = ok && res.Claims[i] == want[i]
		}
		if !ok {
			a.out.fail("aggregate claims differ from the native extraction")
			continue
		}
		folds, audits = append(folds, fold), append(audits, audit)
	}
	return folds, audits, proofs, pubs
}

// layerMetrics derives the per-layer metrics of a traced audit run from
// the spans, the service's counters, the wire counter and probes run
// after the measured phase.
func (a *auditRun) layerMetrics(before, after *client.Stats, wire [2]wireSnap, folds, audits []float64,
	aggProofs []*groth16.Proof, aggPubs [][]fr.Element) error {
	m, tr, s := a.out.metrics, a.tr, a.s
	cc, oc := s.classes[0], s.classes[1]
	rng := rand.New(rand.NewSource(a.cfg.seed + 40))

	// Verifier probes on fresh proofs of each class.
	for _, c := range s.classes {
		r := newRerand(c.genuine, c.vk, rng)
		class := map[string]string{"committed": "light", "open": "heavy"}[c.name]
		for i := 0; i < 10; i++ {
			p := r.next()
			if err := tr.timed("groth16.verify."+class, 0, -1, func() error { return groth16.Verify(c.vk, p, c.genuine.pub) }); err != nil {
				return err
			}
			if c == oc {
				probeVerifier(tr, 0, c.vk, c.genuine.pub, p)
			}
		}
	}
	var sink groth16.PublicInputs
	for i := 0; i < 10; i++ {
		if err := tr.timed("groth16.instance_json", 0, -1, func() error {
			b, err := json.Marshal(groth16.PublicInputs(oc.genuine.pub))
			if err != nil {
				return err
			}
			return json.Unmarshal(b, &sink)
		}); err != nil {
			return err
		}
	}
	// The micro-batcher's fill and the fallbacks forged proofs caused.
	calls := after.Service.VerifyBatchCalls - before.Service.VerifyBatchCalls
	fill := 0.0
	if calls > 0 {
		fill = float64(after.Service.VerifyBatchedRequests-before.Service.VerifyBatchedRequests) / float64(calls)
	}
	m.set("service.batch_fill", "ratio", fill)
	if a.forged > 0 {
		m.set("service.fallbacks_per_poisoned_window", "ratio",
			float64(after.Service.VerifyFallbacks-before.Service.VerifyFallbacks)/float64(a.forged))
	}
	window := max(2, int(fill+0.5))
	r := newRerand(cc.genuine, cc.vk, rng)
	bp, bpub := make([]*groth16.Proof, window), make([][]fr.Element, window)
	for i := range bp {
		bp[i], bpub[i] = r.next(), cc.genuine.pub
	}
	for i := 0; i < 5; i++ {
		if err := tr.timed("groth16.batch_verify", 0, -1, func() error { return groth16.BatchVerify(cc.vk, bp, bpub, rng) }); err != nil {
			return err
		}
	}
	m.set("groth16.batch_verify_ms_per_proof", "ms", tr.p50MS("groth16.batch_verify")/float64(window))

	// Aggregation layers on the last aggregated set.
	srs, err := ipp.NewSRS(ipp.NextPow2(len(aggProofs)), rng)
	if err != nil {
		return err
	}
	var agg *groth16.AggregateProof
	if err := tr.timed("groth16.aggregate", 0, -1, func() (e error) {
		agg, e = groth16.AggregateProofs(srs, cc.vk, aggProofs, aggPubs)
		return
	}); err != nil {
		return err
	}
	if err := tr.timed("groth16.verify_aggregate", 0, -1, func() error {
		return groth16.VerifyAggregate(&srs.VK, cc.vk, agg, aggPubs)
	}); err != nil {
		return err
	}

	m.set("core.compile_s", "s", s.compileS)
	m.set("core.constraints", "count", float64(s.cons))
	m.set("core.public_inputs", "count", float64(s.pubs))
	m.set("groth16.setup_s", "s", s.eng.Stats().SetupTime.Seconds())
	m.set("groth16.pk_raw_mb", "MiB", float64(s.pkRawB)/(1<<20))
	m.set("groth16.verify_light_ms", "ms", tr.p50MS("groth16.verify.light"))
	m.set("groth16.verify_heavy_ms", "ms", tr.p50MS("groth16.verify.heavy"))
	m.set("groth16.instance_json_ms", "ms", tr.p50MS("groth16.instance_json"))
	m.set("groth16.aggregate_ms", "ms", tr.p50MS("groth16.aggregate"))
	m.set("groth16.verify_aggregate_ms", "ms", tr.p50MS("groth16.verify_aggregate"))
	m.set("curve.msm_ic_ms", "ms", tr.p50MS("curve.msm_ic"))
	m.set("pairing.check_ms", "ms", tr.p50MS("pairing.check"))
	m.set("ipp.srs_s", "s", s.srsS)
	m.set("service.register_s", "s", s.registerS)
	m.set("service.overhead_ms", "ms", median(a.lat["committed"])-tr.p50MS("groth16.verify.light"))
	if w := wire[0]; w.requests > 0 {
		m.set("service.request_kb", "KB", float64(w.reqBytes)/float64(w.requests)/1e3)
		m.set("service.response_kb", "KB", float64(w.respBytes)/float64(w.requests)/1e3)
	}
	// Poisoned batcher windows fall back to per-proof verification and
	// show in the tail, not the median.
	m.set("client.verify_committed_p90_ms", "ms", quantile(a.lat["committed"], 0.9))
	if w := wire[1]; w.requests > 0 {
		m.set("client.wire_kb_open", "KB", float64(w.reqBytes+w.respBytes)/float64(w.requests)/1e3)
	}
	m.set("client.aggregate_fold_s", "s", median(folds))
	m.set("client.aggregate_audit_ms", "ms", median(audits))
	m.set("trace.unattributed_frac", "ratio", tr.unattributedFrac("op."))
	m.set("trace.overhead_frac", "ratio", median(a.tlat["committed"])/median(a.lat["committed"])-1)
	return nil
}

// wireCounter is the auditors' RoundTripper: it counts request and
// response body bytes and, in a traced run, records the round trip as a
// span of the request's operation.
type wireCounter struct {
	base                          *http.Transport
	tr                            *tracer
	requests, reqBytes, respBytes atomic.Int64
}

type wireSnap struct{ requests, reqBytes, respBytes int64 }

func newWireCounter() *wireCounter {
	return &wireCounter{base: &http.Transport{MaxConnsPerHost: auditors, MaxIdleConnsPerHost: auditors}}
}

func (w *wireCounter) snapshot() wireSnap {
	return wireSnap{w.requests.Load(), w.reqBytes.Load(), w.respBytes.Load()}
}

// add returns s plus the traffic between snapshots from and to.
func (s wireSnap) add(to, from wireSnap) wireSnap {
	return wireSnap{s.requests + to.requests - from.requests, s.reqBytes + to.reqBytes - from.reqBytes,
		s.respBytes + to.respBytes - from.respBytes}
}

func (w *wireCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if ref, ok := req.Context().Value(opKey{}).(opRef); ok {
		id := w.tr.begin("service.roundtrip", ref.op, ref.parent)
		defer w.tr.end(id)
	}
	w.requests.Add(1)
	if req.ContentLength > 0 {
		w.reqBytes.Add(req.ContentLength)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &w.respBytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

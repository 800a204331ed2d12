package groth16

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/obs"
	"zkrownn/internal/poly"
	"zkrownn/internal/r1cs"
)

// Out-of-core proving: at paper scale the proving key dominates memory
// (three G1 points and one G2 point per wire, plus the Z query), while
// everything else the prover touches — witness, recoded digits, FFT
// vectors — is a few dozen bytes per wire. The streamed backend leaves
// the key in its raw uncompressed file (the WriteRawTo layout) and walks
// each query section once per proof through a bounded double-buffered
// point window, so peak prover memory is independent of key size.
//
// Raw layout (all integers little-endian), as written by WriteRawTo and
// SetupStreamed:
//
//	offset 0    magic "ZKPR" (4) · version uint32 (4) · DomainSize uint64 (8)
//	offset 16   AlphaG1, BetaG1, DeltaG1   3 × 64 B uncompressed G1
//	offset 208  BetaG2, DeltaG2            2 × 128 B uncompressed G2
//	offset 464  section A   uint32 count · count × 64 B
//	            section B1  uint32 count · count × 64 B
//	            section K   uint32 count · count × 64 B
//	            section Z   uint32 count · count × 64 B
//	            section B2  uint32 count · count × 128 B
const rawPKFixedHeaderSize = 16 + 3*curve.G1UncompressedSize + 2*curve.G2UncompressedSize

// RawPKSizeBytes returns the size of the raw uncompressed proving-key
// encoding (WriteRawTo / SetupStreamed output) for the given system
// without materializing the key — the quantity a memory budget is
// compared against when deciding whether to stream.
func RawPKSizeBytes(sys r1cs.Constraints) (int64, error) {
	d := sys.Dims()
	nbCons := d.NbConstraints
	if nbCons == 0 {
		return 0, errors.New("groth16: empty constraint system")
	}
	domain, err := poly.NewDomain(uint64(nbCons))
	if err != nil {
		return 0, err
	}
	m := int64(d.NbWires)
	ell := int64(d.NbPublic)
	n := int64(domain.N)
	return rawPKSize(m+m+(m-ell)+(n-1), m), nil // G1: A + B1 + K + Z; G2: B2
}

// rawPKSize is the raw encoding's size for a key holding g1 points
// across sections A, B1, K and Z and g2 points in B2.
func rawPKSize(g1, g2 int64) int64 {
	return rawPKFixedHeaderSize + 5*4 + g1*curve.G1UncompressedSize + g2*curve.G2UncompressedSize
}

// rawSection locates one query section inside the raw key file: the
// byte offset of its first point (past the uint32 count) and the point
// count.
type rawSection struct {
	off int64
	n   int
}

// StreamedProvingKey is a proving key that stays on disk: it holds the
// handful of header points in memory plus the offsets of the five query
// sections in an io.ReaderAt over the raw encoding. ProveStreamedSpilled
// reads each section once per proof through a bounded window and yields
// the proofs the in-memory ProvingKey would.
//
// The ReaderAt must serve overlapping lifetimes: a StreamedProvingKey
// may be shared across goroutines (ReaderAt is required to be safe for
// concurrent use), but each individual MSM streams its section through
// a private buffer.
type StreamedProvingKey struct {
	r   io.ReaderAt
	hdr pkHeader

	secA, secB1, secK, secZ, secB2 rawSection

	// Chunk is the number of points per streamed window (0 means
	// curve.DefaultStreamChunk). Peak per-MSM point memory is twice
	// this (double buffering) plus one chunk of decoded affine points.
	Chunk int

	// SpillDir is where the out-of-core quotient pipeline writes its
	// short-lived intermediate vectors (empty means the system temp
	// directory). Callers that already manage a scratch directory for
	// spilled keys (the prover engine) point this at it.
	SpillDir string
}

// OpenStreamedProvingKey indexes a raw proving key (the WriteRawTo
// layout) served by r without loading its query sections: it decodes
// the fixed header points and records each section's offset. Section
// point data is validated lazily, chunk by chunk, as proofs stream it.
func OpenStreamedProvingKey(r io.ReaderAt) (*StreamedProvingKey, error) {
	head := make([]byte, rawPKFixedHeaderSize)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("groth16: raw key header: %w", err)
	}
	if [4]byte(head[0:4]) != magicPKRaw {
		return nil, fmt.Errorf("groth16: bad magic %q", head[0:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != formatVersion {
		return nil, fmt.Errorf("groth16: unsupported format version %d", v)
	}
	pk := &StreamedProvingKey{r: r}
	pk.hdr.DomainSize = binary.LittleEndian.Uint64(head[8:16])
	cur := 16
	for _, pt := range []*curve.G1Affine{&pk.hdr.AlphaG1, &pk.hdr.BetaG1, &pk.hdr.DeltaG1} {
		if err := pt.SetBytesRaw(head[cur : cur+curve.G1UncompressedSize]); err != nil {
			return nil, fmt.Errorf("groth16: raw key header point: %w", err)
		}
		cur += curve.G1UncompressedSize
	}
	for _, pt := range []*curve.G2Affine{&pk.hdr.BetaG2, &pk.hdr.DeltaG2} {
		if err := pt.SetBytesRaw(head[cur : cur+curve.G2UncompressedSize]); err != nil {
			return nil, fmt.Errorf("groth16: raw key header point: %w", err)
		}
		cur += curve.G2UncompressedSize
	}

	off := int64(rawPKFixedHeaderSize)
	section := func(sec *rawSection, pointSize int64) error {
		var cnt [4]byte
		if _, err := r.ReadAt(cnt[:], off); err != nil {
			return fmt.Errorf("groth16: raw key section count at %d: %w", off, err)
		}
		n := binary.LittleEndian.Uint32(cnt[:])
		if n > 1<<28 {
			return errors.New("groth16: implausible raw section length")
		}
		sec.off = off + 4
		sec.n = int(n)
		off = sec.off + int64(n)*pointSize
		return nil
	}
	for _, sec := range []*rawSection{&pk.secA, &pk.secB1, &pk.secK, &pk.secZ} {
		if err := section(sec, curve.G1UncompressedSize); err != nil {
			return nil, err
		}
	}
	if err := section(&pk.secB2, curve.G2UncompressedSize); err != nil {
		return nil, err
	}
	// Probe the final byte so a file truncated mid-section surfaces at
	// open time rather than mid-proof.
	if off > int64(rawPKFixedHeaderSize) {
		var b [1]byte
		if _, err := r.ReadAt(b[:], off-1); err != nil {
			return nil, fmt.Errorf("groth16: raw key truncated (want %d bytes): %w", off, err)
		}
	}
	return pk, nil
}

// DomainSize returns the FFT domain order recorded in the key.
func (pk *StreamedProvingKey) DomainSize() uint64 { return pk.hdr.DomainSize }

// SizeBytes returns the raw encoding's total size in bytes.
func (pk *StreamedProvingKey) SizeBytes() int64 {
	return pk.secB2.off + int64(pk.secB2.n)*curve.G2UncompressedSize
}

func (pk *StreamedProvingKey) chunkSize() int {
	if pk.Chunk > 0 {
		return pk.Chunk
	}
	return curve.DefaultStreamChunk
}

func (pk *StreamedProvingKey) checkShape(d r1cs.Dims) error {
	m := d.NbWires
	if pk.secA.n != m || pk.secB1.n != m || pk.secB2.n != m {
		return fmt.Errorf("groth16: streamed key wire sections sized %d/%d/%d, system has %d wires",
			pk.secA.n, pk.secB1.n, pk.secB2.n, m)
	}
	if pk.secK.n != m-d.NbPublic {
		return fmt.Errorf("groth16: streamed key K section sized %d, system has %d private wires",
			pk.secK.n, m-d.NbPublic)
	}
	if pk.secZ.n != int(pk.hdr.DomainSize)-1 {
		return fmt.Errorf("groth16: streamed key Z section sized %d, domain size %d expects %d",
			pk.secZ.n, pk.hdr.DomainSize, pk.hdr.DomainSize-1)
	}
	return nil
}

// ProveStreamedSpilled is the out-of-core prover mode: the key streams
// from its raw file, the constraint rows from sys (a
// *r1cs.CompiledSystemFile in the engine; a resident system works too)
// in bounded row windows, and the witness from a spilled store through
// its bounded page cache, while the quotient lives in disk vectors. No
// circuit-sized object is ever fully resident. The store must hold a
// finished solve (r1cs.CompiledSystem.SolveSpilled).
//
// With the same system, witness and seeded rng the proof is
// byte-identical to ProveTraced with the materialized key: the spill
// roundtrip preserves encodings bit for bit, chunking only reassociates
// the MSM partial sums, and affine normalization is canonical. tr, when
// non-nil, records the out-of-core quotient stages and the per-chunk
// read/recode/msm breakdown of each streamed section.
func ProveStreamedSpilled(sys r1cs.Constraints, pk *StreamedProvingKey, wf *r1cs.WitnessFile, rng io.Reader, tr *obs.Trace) (*Proof, error) {
	d := sys.Dims()
	if err := checkWireCount(wf.Len(), d); err != nil {
		return nil, err
	}
	sp := tr.Span("prove/satisfy")
	ok, bad, err := checkSatisfied(sys, wf, tr)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("groth16: satisfy check: %w", err)
	}
	if !ok {
		return nil, errUnsatisfied(bad)
	}
	if err := pk.checkShape(d); err != nil {
		return nil, err
	}

	// Each section's MSM recodes its scalars chunk by chunk as they
	// stream in, so digit memory stays at one chunk's worth.
	m := d.NbWires
	var msm proofMSMs
	if msm.a, err = pk.streamG1(pk.secA, wf, 0, m, tr, "stream/A"); err != nil {
		return nil, err
	}
	chunk := pk.chunkSize()
	msm.b2, err = curve.MultiExpG2StreamScalarSourceTraced(curve.NewG2RawSource(pk.r, pk.secB2.off),
		witnessSource(wf, 0, tr), m, curve.StreamWindowSize(m, chunk), chunk, tr, "stream/B2")
	if err != nil {
		return nil, err
	}
	if msm.b1, err = pk.streamG1(pk.secB1, wf, 0, m, tr, "stream/B1"); err != nil {
		return nil, err
	}
	if msm.c, err = pk.streamG1(pk.secK, wf, d.NbPublic, m-d.NbPublic, tr, "stream/K"); err != nil {
		return nil, err
	}
	z, err := pk.expZQuotient(sys, wf, tr)
	if err != nil {
		return nil, err
	}
	msm.c.AddAssign(&z)
	return msm.blind(pk.hdr, rng)
}

// streamG1 runs one G1 query section through the chunked MSM, streaming
// its points from the raw key and its scalars — wires [off, off+n) —
// from the spilled witness.
func (pk *StreamedProvingKey) streamG1(sec rawSection, wf *r1cs.WitnessFile, off, n int, tr *obs.Trace, label string) (curve.G1Jac, error) {
	chunk := pk.chunkSize()
	return curve.MultiExpG1StreamScalarSourceTraced(curve.NewG1RawSource(pk.r, sec.off),
		witnessSource(wf, off, tr), n, curve.StreamWindowSize(n, chunk), chunk, tr, label)
}

// expZQuotient runs the fully out-of-core tail of the proof: the
// quotient pipeline leaves h in a disk file (bounded-memory FFTs, at
// most half a domain vector resident), and the Z-section MSM streams
// both its points (from the raw key) and its scalars (from the h file)
// in bounded chunks. h never exists in memory.
func (pk *StreamedProvingKey) expZQuotient(sys r1cs.Constraints, wf *r1cs.WitnessFile, tr *obs.Trace) (curve.G1Jac, error) {
	hf, err := quotientOOC(sys, pk.hdr.DomainSize, wf, pk.SpillDir, tr)
	if err != nil {
		return curve.G1Jac{}, err
	}
	defer hf.Close()
	nScalars := hf.Len() - 1 // deg h ≤ n-2: the key's Z section has n-1 points
	chunk := pk.chunkSize()
	return curve.MultiExpG1StreamScalarSourceTraced(
		curve.NewG1RawSource(pk.r, pk.secZ.off),
		func(dst []fr.Element, start int) error { return hf.ReadAt(dst, start) },
		nScalars, curve.StreamWindowSize(nScalars, chunk), chunk, tr, "stream/Z")
}

// setupSpillChunk is the number of scalars multiplied per batch while
// SetupStreamed spills a query section — bounding the resident slice of
// fresh G1/G2 points the same way the prover bounds its read window.
const setupSpillChunk = curve.DefaultStreamChunk

// SetupStreamed runs trusted setup writing the proving key directly to
// w in the raw uncompressed layout (exactly the bytes WriteRawTo would
// produce for the in-memory key from the same seeded rng), without ever
// holding a full query section of points in memory: each section is
// generated and spilled in bounded batches. Only the verifying key —
// a handful of points plus one G1 per public input — is returned in
// memory. Setup randomness is drawn in the same order as Setup, so a
// seeded rng yields identical key material in either mode.
//
// The scalar side of setup (a few field elements per wire) still lives
// in RAM; it is the group elements, an order of magnitude larger, that
// are spilled. sys may be file-backed (see Setup), in which case the
// QAP accumulation streams the matrices too and nothing
// circuit-proportional beyond the scalar vectors is resident.
func SetupStreamed(sys r1cs.Constraints, rng io.Reader, w io.Writer) (*VerifyingKey, error) {
	sc, err := computeSetupScalars(sys, rng)
	if err != nil {
		return nil, err
	}
	g1 := curve.G1Generator()
	g2 := curve.G2Generator()
	t1 := curve.NewG1FixedBaseTable(&g1)
	t2 := curve.NewG2FixedBaseTable(&g2)

	if err := writeHeader(w, magicPKRaw); err != nil {
		return nil, err
	}
	if err := binary.Write(w, binary.LittleEndian, sc.domain.N); err != nil {
		return nil, err
	}
	for _, k := range []*fr.Element{&sc.alpha, &sc.beta, &sc.delta} {
		p := singleG1(t1, k)
		b := p.BytesRaw()
		if _, err := w.Write(b[:]); err != nil {
			return nil, err
		}
	}
	for _, k := range []*fr.Element{&sc.beta, &sc.delta} {
		p := singleG2(t2, k)
		b := p.BytesRaw()
		if _, err := w.Write(b[:]); err != nil {
			return nil, err
		}
	}

	spillG1 := func(scalars []fr.Element) error {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(scalars))); err != nil {
			return err
		}
		for start := 0; start < len(scalars); start += setupSpillChunk {
			end := min(start+setupSpillChunk, len(scalars))
			pts := t1.MulBatch(scalars[start:end])
			for i := range pts {
				b := pts[i].BytesRaw()
				if _, err := w.Write(b[:]); err != nil {
					return err
				}
			}
		}
		return nil
	}
	spillG2 := func(scalars []fr.Element) error {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(scalars))); err != nil {
			return err
		}
		for start := 0; start < len(scalars); start += setupSpillChunk {
			end := min(start+setupSpillChunk, len(scalars))
			pts := t2.MulBatch(scalars[start:end])
			for i := range pts {
				b := pts[i].BytesRaw()
				if _, err := w.Write(b[:]); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Section order matches WriteRawTo: A, B1, K, Z in G1, then B2 in
	// G2. Scalar slices are dropped as soon as their last section is
	// written (vTau feeds both B1 and B2, so it survives to the end).
	if err := spillG1(sc.uTau); err != nil {
		return nil, err
	}
	sc.uTau = nil
	if err := spillG1(sc.vTau); err != nil {
		return nil, err
	}
	if err := spillG1(sc.kScalars); err != nil {
		return nil, err
	}
	sc.kScalars = nil
	if err := spillG1(sc.zScalars); err != nil {
		return nil, err
	}
	sc.zScalars = nil
	if err := spillG2(sc.vTau); err != nil {
		return nil, err
	}
	sc.vTau = nil

	vk := sc.verifyingKey(t1, t2)
	return &vk, nil
}

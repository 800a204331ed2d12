package groth16

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkrownn/internal/bn254/curve"
	"zkrownn/internal/bn254/pairing"
)

// Binary framing: a 4-byte magic, a format version, then the payload —
// compressed points for proofs and verifying keys, uncompressed points
// for the proving key (WriteRawTo). Integers are little-endian.
var (
	magicProof = [4]byte{'Z', 'K', 'P', 'F'}
	magicPKRaw = [4]byte{'Z', 'K', 'P', 'R'}
	magicVK    = [4]byte{'Z', 'K', 'V', 'K'}
)

const formatVersion = 1

type countingWriter struct {
	n int64
	w io.Writer
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func writeHeader(w io.Writer, magic [4]byte) error {
	if _, err := w.Write(magic[:]); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, uint32(formatVersion))
}

func readHeader(r io.Reader, magic [4]byte) error {
	var got [4]byte
	if _, err := io.ReadFull(r, got[:]); err != nil {
		return err
	}
	if got != magic {
		return fmt.Errorf("groth16: bad magic %q", got[:])
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return err
	}
	if ver != formatVersion {
		return fmt.Errorf("groth16: unsupported format version %d", ver)
	}
	return nil
}

func writeG1(w io.Writer, p *curve.G1Affine) error {
	b := p.Bytes()
	_, err := w.Write(b[:])
	return err
}

func readG1(r io.Reader, p *curve.G1Affine) error {
	var b [curve.G1CompressedSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	return p.SetBytes(b[:])
}

func writeG2(w io.Writer, p *curve.G2Affine) error {
	b := p.Bytes()
	_, err := w.Write(b[:])
	return err
}

func readG2(r io.Reader, p *curve.G2Affine) error {
	var b [curve.G2CompressedSize]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return err
	}
	return p.SetBytes(b[:])
}

func writeG1Slice(w io.Writer, ps []curve.G1Affine) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ps))); err != nil {
		return err
	}
	for i := range ps {
		if err := writeG1(w, &ps[i]); err != nil {
			return err
		}
	}
	return nil
}

func readG1Slice(r io.Reader) ([]curve.G1Affine, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<28 {
		return nil, errors.New("groth16: implausible G1 slice length")
	}
	out := make([]curve.G1Affine, n)
	for i := range out {
		if err := readG1(r, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteTo serializes the proof (exactly 3 compressed points after the
// 8-byte header: 128 bytes of cryptographic material).
func (p *Proof) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := writeHeader(cw, magicProof); err != nil {
		return cw.n, err
	}
	if err := writeG1(cw, &p.Ar); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &p.Bs); err != nil {
		return cw.n, err
	}
	if err := writeG1(cw, &p.Krs); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a proof, validating curve/subgroup membership of
// every point.
func (p *Proof) ReadFrom(r io.Reader) (int64, error) {
	if err := readHeader(r, magicProof); err != nil {
		return 0, err
	}
	if err := readG1(r, &p.Ar); err != nil {
		return 0, err
	}
	if err := readG2(r, &p.Bs); err != nil {
		return 0, err
	}
	if err := readG1(r, &p.Krs); err != nil {
		return 0, err
	}
	return 8 + curve.G1CompressedSize*2 + curve.G2CompressedSize, nil
}

// PayloadSize returns the size of the cryptographic payload in bytes
// (excluding framing), i.e. the "proof size" a protocol would transmit.
func (p *Proof) PayloadSize() int {
	return 2*curve.G1CompressedSize + curve.G2CompressedSize
}

// WriteTo serializes the verifying key.
func (vk *VerifyingKey) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := writeHeader(cw, magicVK); err != nil {
		return cw.n, err
	}
	if err := writeG1(cw, &vk.AlphaG1); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.BetaG2); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.GammaG2); err != nil {
		return cw.n, err
	}
	if err := writeG2(cw, &vk.DeltaG2); err != nil {
		return cw.n, err
	}
	if err := writeG1Slice(cw, vk.IC); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a verifying key.
func (vk *VerifyingKey) ReadFrom(r io.Reader) (int64, error) {
	if err := readHeader(r, magicVK); err != nil {
		return 0, err
	}
	if err := readG1(r, &vk.AlphaG1); err != nil {
		return 0, err
	}
	if err := readG2(r, &vk.BetaG2); err != nil {
		return 0, err
	}
	if err := readG2(r, &vk.GammaG2); err != nil {
		return 0, err
	}
	if err := readG2(r, &vk.DeltaG2); err != nil {
		return 0, err
	}
	ic, err := readG1Slice(r)
	if err != nil {
		return 0, err
	}
	vk.IC = ic
	// Re-derive the cached e(α, β) (it is not serialized — the points
	// are the authoritative material) so deserialized keys verify on the
	// 3-pairing fast path.
	vk.AlphaBeta = pairing.Pair(&vk.AlphaG1, &vk.BetaG2)
	return 0, nil
}

// WriteRawTo serializes the proving key with uncompressed points, the
// one proving-key encoding: the prover engine's key cache, streamed
// setup (SetupStreamed) and OpenStreamedProvingKey all use it. Reading
// it back skips the per-point square root of compressed decoding, which
// makes deserialization orders of magnitude faster than a compressed
// format; the price is about twice the bytes. Proving keys never cross
// a trust boundary (only verifying keys and proofs do), so ReadRawFrom
// does not check subgroup membership.
func (pk *ProvingKey) WriteRawTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	if err := writeHeader(cw, magicPKRaw); err != nil {
		return cw.n, err
	}
	if err := binary.Write(cw, binary.LittleEndian, pk.DomainSize); err != nil {
		return cw.n, err
	}
	for _, pt := range []*curve.G1Affine{&pk.AlphaG1, &pk.BetaG1, &pk.DeltaG1} {
		b := pt.BytesRaw()
		if _, err := cw.Write(b[:]); err != nil {
			return cw.n, err
		}
	}
	for _, pt := range []*curve.G2Affine{&pk.BetaG2, &pk.DeltaG2} {
		b := pt.BytesRaw()
		if _, err := cw.Write(b[:]); err != nil {
			return cw.n, err
		}
	}
	for _, s := range [][]curve.G1Affine{pk.A, pk.B1, pk.K, pk.Z} {
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(s))); err != nil {
			return cw.n, err
		}
		for i := range s {
			b := s[i].BytesRaw()
			if _, err := cw.Write(b[:]); err != nil {
				return cw.n, err
			}
		}
	}
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(pk.B2))); err != nil {
		return cw.n, err
	}
	for i := range pk.B2 {
		b := pk.B2[i].BytesRaw()
		if _, err := cw.Write(b[:]); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ReadRawFrom deserializes a proving key written by WriteRawTo. Points
// are checked on-curve but G2 subgroup membership is NOT verified — the
// raw format is for locally trusted material only.
func (pk *ProvingKey) ReadRawFrom(r io.Reader) (int64, error) {
	if err := readHeader(r, magicPKRaw); err != nil {
		return 0, err
	}
	if err := binary.Read(r, binary.LittleEndian, &pk.DomainSize); err != nil {
		return 0, err
	}
	var g1buf [curve.G1UncompressedSize]byte
	var g2buf [curve.G2UncompressedSize]byte
	readG1Raw := func(p *curve.G1Affine) error {
		if _, err := io.ReadFull(r, g1buf[:]); err != nil {
			return err
		}
		return p.SetBytesRaw(g1buf[:])
	}
	readG2Raw := func(p *curve.G2Affine) error {
		if _, err := io.ReadFull(r, g2buf[:]); err != nil {
			return err
		}
		return p.SetBytesRaw(g2buf[:])
	}
	for _, pt := range []*curve.G1Affine{&pk.AlphaG1, &pk.BetaG1, &pk.DeltaG1} {
		if err := readG1Raw(pt); err != nil {
			return 0, err
		}
	}
	for _, pt := range []*curve.G2Affine{&pk.BetaG2, &pk.DeltaG2} {
		if err := readG2Raw(pt); err != nil {
			return 0, err
		}
	}
	readG1RawSlice := func() ([]curve.G1Affine, error) {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > 1<<28 {
			return nil, errors.New("groth16: implausible G1 slice length")
		}
		out := make([]curve.G1Affine, n)
		for i := range out {
			if err := readG1Raw(&out[i]); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var err error
	if pk.A, err = readG1RawSlice(); err != nil {
		return 0, err
	}
	if pk.B1, err = readG1RawSlice(); err != nil {
		return 0, err
	}
	if pk.K, err = readG1RawSlice(); err != nil {
		return 0, err
	}
	if pk.Z, err = readG1RawSlice(); err != nil {
		return 0, err
	}
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return 0, err
	}
	if n > 1<<28 {
		return 0, errors.New("groth16: implausible G2 slice length")
	}
	pk.B2 = make([]curve.G2Affine, n)
	for i := range pk.B2 {
		if err := readG2Raw(&pk.B2[i]); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

// SizeBytes returns the size of the key's WriteRawTo encoding — the
// same figure StreamedProvingKey.SizeBytes and RawPKSizeBytes report.
func (pk *ProvingKey) SizeBytes() int64 {
	return rawPKSize(int64(len(pk.A)+len(pk.B1)+len(pk.K)+len(pk.Z)), int64(len(pk.B2)))
}

// SizeBytes returns the serialized size of the verifying key.
func (vk *VerifyingKey) SizeBytes() int64 {
	cw := &countingWriter{w: io.Discard}
	_, _ = vk.WriteTo(cw)
	return cw.n
}

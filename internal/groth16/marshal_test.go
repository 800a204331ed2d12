package groth16

import (
	"bytes"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/curve"
)

// marshalFixture runs setup+prove once for the cubic toy circuit and
// hands the three artifacts to the round-trip tests.
func marshalFixture(t *testing.T) (*ProvingKey, *VerifyingKey, *Proof) {
	t.Helper()
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(42))
	pk, vk, err := Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := Prove(sys, pk, cubicWitness(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	return pk, vk, proof
}

func g1Equal(a, b []curve.G1Affine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

func g2Equal(a, b []curve.G2Affine) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(&b[i]) {
			return false
		}
	}
	return true
}

func assertPKEqual(t *testing.T, want, got *ProvingKey) {
	t.Helper()
	if got.DomainSize != want.DomainSize {
		t.Fatalf("DomainSize %d != %d", got.DomainSize, want.DomainSize)
	}
	if !got.AlphaG1.Equal(&want.AlphaG1) || !got.BetaG1.Equal(&want.BetaG1) || !got.DeltaG1.Equal(&want.DeltaG1) {
		t.Fatal("G1 setup points differ after round trip")
	}
	if !got.BetaG2.Equal(&want.BetaG2) || !got.DeltaG2.Equal(&want.DeltaG2) {
		t.Fatal("G2 setup points differ after round trip")
	}
	if !g1Equal(want.A, got.A) || !g1Equal(want.B1, got.B1) || !g1Equal(want.K, got.K) || !g1Equal(want.Z, got.Z) {
		t.Fatal("G1 query slices differ after round trip")
	}
	if !g2Equal(want.B2, got.B2) {
		t.Fatal("B2 slice differs after round trip")
	}
}

// TestProvingKeyRoundTrip checks that the in-memory writer and the
// streamed reader agree on the one proving-key encoding: a WriteRawTo
// image opens as a StreamedProvingKey of the same size and header.
func TestProvingKeyRoundTrip(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != pk.SizeBytes() {
		t.Fatalf("WriteRawTo wrote %d bytes, SizeBytes says %d", buf.Len(), pk.SizeBytes())
	}
	spk, err := OpenStreamedProvingKey(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if spk.SizeBytes() != pk.SizeBytes() || spk.DomainSize() != pk.DomainSize {
		t.Fatalf("streamed view: size %d domain %d, in-memory: size %d domain %d",
			spk.SizeBytes(), spk.DomainSize(), pk.SizeBytes(), pk.DomainSize)
	}
}

func TestProvingKeyRawRoundTrip(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got ProvingKey
	if _, err := got.ReadRawFrom(&buf); err != nil {
		t.Fatal(err)
	}
	assertPKEqual(t, pk, &got)
}

// TestRawKeyProvesIdentically is the behavioral check: a proving key
// deserialized from the raw cache format must produce proofs the
// original verifying key accepts.
func TestRawKeyProvesIdentically(t *testing.T) {
	pk, vk, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	var restored ProvingKey
	if _, err := restored.ReadRawFrom(&buf); err != nil {
		t.Fatal(err)
	}
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(7))
	proof, err := Prove(sys, &restored, cubicWitness(4), rng)
	if err != nil {
		t.Fatal(err)
	}
	public := cubicWitness(4)[1:2]
	if err := Verify(vk, proof, public); err != nil {
		t.Fatalf("proof from deserialized key rejected: %v", err)
	}
}

func TestVerifyingKeyRoundTrip(t *testing.T) {
	pk, vk, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := vk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != vk.SizeBytes() {
		t.Fatalf("WriteTo wrote %d bytes, SizeBytes says %d", buf.Len(), vk.SizeBytes())
	}
	var got VerifyingKey
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !got.AlphaG1.Equal(&vk.AlphaG1) || !got.BetaG2.Equal(&vk.BetaG2) ||
		!got.GammaG2.Equal(&vk.GammaG2) || !got.DeltaG2.Equal(&vk.DeltaG2) {
		t.Fatal("VK setup points differ after round trip")
	}
	if !g1Equal(vk.IC, got.IC) {
		t.Fatal("IC slice differs after round trip")
	}
	// Behavioral: the restored VK verifies a fresh proof.
	sys := cubicSystem()
	rng := rand.New(rand.NewSource(8))
	proof, err := Prove(sys, pk, cubicWitness(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(&got, proof, cubicWitness(5)[1:2]); err != nil {
		t.Fatalf("restored VK rejects valid proof: %v", err)
	}
}

func TestProofRoundTrip(t *testing.T) {
	_, vk, proof := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := proof.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	var got Proof
	if _, err := got.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !got.Ar.Equal(&proof.Ar) || !got.Bs.Equal(&proof.Bs) || !got.Krs.Equal(&proof.Krs) {
		t.Fatal("proof points differ after round trip")
	}
	if err := Verify(vk, &got, cubicWitness(3)[1:2]); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

func TestMarshalRejectsWrongMagic(t *testing.T) {
	pk, _, _ := marshalFixture(t)
	var buf bytes.Buffer
	if _, err := pk.WriteRawTo(&buf); err != nil {
		t.Fatal(err)
	}
	// A verifying-key stream must not parse as a proving key.
	_, vk, _ := marshalFixture(t)
	var vkBuf bytes.Buffer
	if _, err := vk.WriteTo(&vkBuf); err != nil {
		t.Fatal(err)
	}
	var got ProvingKey
	if _, err := got.ReadRawFrom(bytes.NewReader(vkBuf.Bytes())); err == nil {
		t.Fatal("proving-key reader accepted verifying-key stream")
	}
	var got2 Proof
	if _, err := got2.ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("proof reader accepted proving-key stream")
	}
}

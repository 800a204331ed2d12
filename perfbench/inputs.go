package main

import (
	"fmt"
	"math/rand"

	"zkrownn/internal/core"
	"zkrownn/internal/dataset"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/nn"
	"zkrownn/internal/watermark"
)

// sizes fixes the circuit dimensions of one benchmark scale.
type sizes struct {
	mlpIn, mlpHidden int // dense: mlpIn → FC(mlpHidden), watermark on its ReLU
	cnnIn, cnnOut    int // conv: 3×cnnIn×cnnIn → C(cnnOut, 3, 2)
	bits, triggers   int
	maxErrors        int // public BER tolerance θ·N
	aggregateN       int // proofs per registry aggregate
}

var (
	// benchSizes is about a third of the zkrownn-bench default-scale
	// MNIST-MLP and CIFAR10-CNN rows, so that three trusted setups and a
	// measured phase fit one run.
	benchSizes = sizes{mlpIn: 64, mlpHidden: 16, cnnIn: 10, cnnOut: 4, bits: 16, triggers: 2, maxErrors: 2, aggregateN: 32}
	// tinySizes is the self-test scale; every workload finishes in seconds.
	tinySizes = sizes{mlpIn: 16, mlpHidden: 8, cnnIn: 6, cnnOut: 2, bits: 8, triggers: 2, maxErrors: 1, aggregateN: 4}
)

var fxp = fixpoint.Default16

const classes = 4

// owner is one architecture's owner-side material: the float model, its
// quantized image, the watermark key, and a constructor for independent
// models of the same architecture.
type owner struct {
	kind string // "mlp" or "cnn"
	net  *nn.Network
	q    *nn.QuantizedNetwork
	key  *watermark.Key
	ds   *dataset.Dataset
	arch func(rng *rand.Rand) *nn.Network
	// actDim is the width of the watermarked activation (layer 1).
	actDim int
	sz     sizes
}

// newOwner draws a dataset, an owner model and a watermark key from rng.
// The key's signature is set to what the owner's quantized model extracts,
// so the owner's model carries the watermark with zero bit errors
// (embedding by fine-tuning would cost seconds per set-up and does not
// change any circuit's shape).
func newOwner(kind string, sz sizes, rng *rand.Rand) (*owner, error) {
	o := &owner{kind: kind, sz: sz}
	var cfg dataset.Config
	switch kind {
	case "mlp":
		cfg = dataset.Config{Samples: 40, Dim: sz.mlpIn, Classes: classes, ClusterStd: 0.35, CenterScale: 1, Seed: rng.Int63()}
		o.arch = func(r *rand.Rand) *nn.Network {
			return nn.NewMLP(nn.MLPConfig{In: sz.mlpIn, Hidden: []int{sz.mlpHidden}, Classes: classes}, r)
		}
		o.actDim = sz.mlpHidden
	case "cnn":
		cfg = dataset.Config{Samples: 40, Dim: 3 * sz.cnnIn * sz.cnnIn, Classes: classes, ClusterStd: 0.35, CenterScale: 1,
			Seed: rng.Int63(), Shape: [3]int{3, sz.cnnIn, sz.cnnIn}}
		o.arch = func(r *rand.Rand) *nn.Network {
			return nn.NewSmallCNN(nn.SmallCNNConfig{InC: 3, InH: sz.cnnIn, InW: sz.cnnIn, OutC: sz.cnnOut, K: 3, S: 2,
				Hidden: 16, Classes: classes}, r)
		}
		side := (sz.cnnIn-3)/2 + 1
		o.actDim = sz.cnnOut * side * side
	default:
		return nil, fmt.Errorf("unknown architecture %q", kind)
	}
	ds, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	o.ds = ds
	o.net = o.arch(rng)
	if o.q, err = nn.Quantize(o.net, fxp); err != nil {
		return nil, err
	}
	if o.key, err = o.newKey(rng); err != nil {
		return nil, err
	}
	bits, _, err := watermark.ExtractQuantized(o.q, o.key)
	if err != nil {
		return nil, err
	}
	o.key.Signature = bits
	return o, nil
}

// newKey draws a watermark key of the owner's shape (the owner's own key,
// or another party's key for a false claim).
func (o *owner) newKey(rng *rand.Rand) (*watermark.Key, error) {
	return watermark.GenerateKey(rng, 1, 0, o.actDim, o.sz.bits, o.sz.triggers, o.ds.OfClass(0))
}

// circuitKey is the key in the circuit's fixed-point format.
func (o *owner) circuitKey(k *watermark.Key) *core.CircuitKey { return core.QuantizeKey(k, fxp) }

// suspect draws a fresh suspect model: with probability 1/2 a stolen
// copy of the owner's model, otherwise an independent one.
func (o *owner) suspect(rng *rand.Rand) (*nn.Network, *nn.QuantizedNetwork, error) {
	if rng.Intn(2) == 0 {
		return o.derivative(rng)
	}
	return o.independent(rng)
}

// derivative is the owner's model with seeded multiplicative weight noise
// (a stolen, fine-tuned copy).
func (o *owner) derivative(rng *rand.Rand) (*nn.Network, *nn.QuantizedNetwork, error) {
	net := o.arch(rng)
	net.RestoreParams(o.net.SnapshotParams())
	for _, l := range net.Layers {
		for _, p := range l.Params() {
			for i := range p {
				p[i] *= 1 + 0.05*rng.NormFloat64()
			}
		}
	}
	q, err := nn.Quantize(net, fxp)
	return net, q, err
}

// independent is a freshly initialised model of the owner's architecture.
func (o *owner) independent(rng *rand.Rand) (*nn.Network, *nn.QuantizedNetwork, error) {
	net := o.arch(rng)
	q, err := nn.Quantize(net, fxp)
	return net, q, err
}

// referenceClaim is the verdict the watermark extraction reaches natively
// on a quantized model: whether it extracts the key's signature within
// the tolerance. The circuit's claim bit must equal it.
func referenceClaim(q *nn.QuantizedNetwork, k *watermark.Key, maxErrors int) (bool, error) {
	_, nbErrors, err := watermark.ExtractQuantized(q, k)
	if err != nil {
		return false, err
	}
	return nbErrors <= maxErrors, nil
}

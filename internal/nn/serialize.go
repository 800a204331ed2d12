package nn

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// jsonLayer is the on-disk form of one layer.
type jsonLayer struct {
	Kind string    `json:"kind"`
	In   int       `json:"in,omitempty"`
	Out  int       `json:"out,omitempty"`
	InC  int       `json:"in_c,omitempty"`
	InH  int       `json:"in_h,omitempty"`
	InW  int       `json:"in_w,omitempty"`
	OutC int       `json:"out_c,omitempty"`
	K    int       `json:"k,omitempty"`
	S    int       `json:"s,omitempty"`
	Size int       `json:"size,omitempty"`
	W    []float64 `json:"w,omitempty"`
	B    []float64 `json:"b,omitempty"`
}

// jsonNetwork is the on-disk form of a network.
type jsonNetwork struct {
	Format int         `json:"format"`
	Layers []jsonLayer `json:"layers"`
}

// Save serializes the network as JSON.
func (n *Network) Save(w io.Writer) error {
	jn := jsonNetwork{Format: 1}
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "dense", In: layer.In, Out: layer.Out, W: layer.W, B: layer.B,
			})
		case *ReLULayer:
			jn.Layers = append(jn.Layers, jsonLayer{Kind: "relu", Size: layer.size})
		case *SigmoidLayer:
			jn.Layers = append(jn.Layers, jsonLayer{Kind: "sigmoid", Size: layer.size})
		case *Conv2D:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "conv",
				InC:  layer.InC, InH: layer.InH, InW: layer.InW,
				OutC: layer.OutC, K: layer.K, S: layer.S,
				W: layer.W, B: layer.B,
			})
		case *MaxPool2D:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "maxpool",
				InC:  layer.C, InH: layer.H, InW: layer.W2(),
				K: layer.K, S: layer.S,
			})
		default:
			return fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jn)
}

// W2 returns the input width of a pooling layer (the W field name
// collides with the weights field in jsonLayer).
func (m *MaxPool2D) W2() int { return m.W }

// maxLayerSize bounds every layer's input and output element count and
// every conv kernel tensor, so a hostile model file cannot make Load or
// the first Forward allocate without limit (16M elements is far past
// any network this package trains).
const maxLayerSize = 1 << 24

// layerSize multiplies positive dimensions; ok is false when one is
// non-positive or the product exceeds maxLayerSize.
func layerSize(dims ...int) (n int, ok bool) {
	n = 1
	for _, d := range dims {
		if d <= 0 || d > maxLayerSize/n {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// Load deserializes a network saved by Save. Malformed models — a
// non-positive or oversized dimension, a stride of zero, a kernel larger
// than its input, weights that do not match their shape, or a layer
// whose input size differs from the previous layer's output — are
// rejected with an error.
func Load(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if jn.Format != 1 {
		return nil, fmt.Errorf("nn: unsupported network format %d", jn.Format)
	}
	net := &Network{}
	for i, jl := range jn.Layers {
		l, in, err := jl.decode()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		if i > 0 {
			if prev := net.Layers[i-1].OutputSize(); in != prev {
				return nil, fmt.Errorf("nn: layer %d takes %d inputs but layer %d outputs %d", i, in, i-1, prev)
			}
		}
		if _, ok := layerSize(l.OutputSize()); !ok {
			return nil, fmt.Errorf("nn: layer %d: output size %d out of range", i, l.OutputSize())
		}
		net.Layers = append(net.Layers, l)
	}
	return net, nil
}

// decode builds one layer and reports its input size.
func (jl *jsonLayer) decode() (Layer, int, error) {
	switch jl.Kind {
	case "dense":
		in, okIn := layerSize(jl.In)
		_, okOut := layerSize(jl.Out)
		if !okIn || !okOut {
			return nil, 0, fmt.Errorf("dense shape %d→%d out of range", jl.In, jl.Out)
		}
		// Division keeps the weight-count check free of overflow.
		if len(jl.W)%jl.Out != 0 || len(jl.W)/jl.Out != jl.In || len(jl.B) != jl.Out {
			return nil, 0, errors.New("inconsistent dense shapes")
		}
		return &Dense{
			In: jl.In, Out: jl.Out,
			W:  jl.W,
			B:  jl.B,
			gw: make([]float64, len(jl.W)),
			gb: make([]float64, len(jl.B)),
		}, in, nil
	case "relu", "sigmoid":
		size, ok := layerSize(jl.Size)
		if !ok {
			return nil, 0, fmt.Errorf("%s size %d out of range", jl.Kind, jl.Size)
		}
		if jl.Kind == "relu" {
			return NewReLU(size), size, nil
		}
		return NewSigmoid(size), size, nil
	case "conv", "maxpool":
		in, ok := layerSize(jl.InC, jl.InH, jl.InW)
		if _, okS := layerSize(jl.S); !ok || !okS || jl.K <= 0 || jl.K > jl.InH || jl.K > jl.InW {
			return nil, 0, fmt.Errorf("%s shape %d×%d×%d, kernel %d, stride %d out of range",
				jl.Kind, jl.InC, jl.InH, jl.InW, jl.K, jl.S)
		}
		if jl.Kind == "maxpool" {
			return NewMaxPool2D(jl.InC, jl.InH, jl.InW, jl.K, jl.S), in, nil
		}
		want, ok := layerSize(jl.OutC, jl.InC, jl.K, jl.K)
		if !ok || len(jl.W) != want || len(jl.B) != jl.OutC {
			return nil, 0, errors.New("inconsistent conv shapes")
		}
		return &Conv2D{
			InC: jl.InC, InH: jl.InH, InW: jl.InW,
			OutC: jl.OutC, K: jl.K, S: jl.S,
			W:  jl.W,
			B:  jl.B,
			gw: make([]float64, len(jl.W)),
			gb: make([]float64, len(jl.B)),
		}, in, nil
	}
	return nil, 0, fmt.Errorf("unknown layer kind %q", jl.Kind)
}

package nn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestSaveLoadRoundTrip checks that both Table II families survive
// Save → Load with identical architecture and outputs.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(120))
	for _, tc := range []struct {
		net *Network
		in  int
	}{
		{NewMLP(MLPConfig{In: 6, Hidden: []int{5}, Classes: 3}, rng), 6},
		{&Network{Layers: []Layer{
			NewConv2D(2, 6, 6, 3, 3, 1, rng), NewReLU(3 * 4 * 4),
			NewMaxPool2D(3, 4, 4, 2, 2), NewDense(3*2*2, 2, rng), NewSigmoid(2),
		}}, 2 * 6 * 6},
	} {
		var buf bytes.Buffer
		if err := tc.net.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("%s: %v", tc.net, err)
		}
		if got.String() != tc.net.String() {
			t.Fatalf("architecture %s reloaded as %s", tc.net, got)
		}
		x := make([]float64, tc.in)
		for i := range x {
			x[i] = rng.Float64()
		}
		want, out := tc.net.Forward(x), got.Forward(x)
		for i := range want {
			if want[i] != out[i] {
				t.Fatalf("%s: output %d = %v after reload, want %v", tc.net, i, out[i], want[i])
			}
		}
	}
}

// TestLoadRejectsMalformed feeds Load hand-written models that are
// well-formed JSON but not well-formed networks: each must come back as
// an error, never a panic or a network that fails later.
func TestLoadRejectsMalformed(t *testing.T) {
	for _, tc := range []struct{ name, layers string }{
		{"relu negative size", `{"kind":"relu","size":-1}`},
		{"sigmoid zero size", `{"kind":"sigmoid"}`},
		{"relu oversized", `{"kind":"relu","size":1099511627776}`},
		{"dense zero out", `{"kind":"dense","in":2,"out":0}`},
		{"dense weight count", `{"kind":"dense","in":2,"out":1,"w":[1],"b":[0]}`},
		{"dense overflowing shape", `{"kind":"dense","in":4294967296,"out":4294967296,"b":[0]}`},
		{"maxpool zero stride", `{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":2,"s":0}`},
		{"maxpool kernel past input", `{"kind":"maxpool","in_c":1,"in_h":4,"in_w":4,"k":5,"s":1}`},
		{"conv negative channels", `{"kind":"conv","in_c":-1,"in_h":4,"in_w":4,"out_c":1,"k":2,"s":1}`},
		{"conv kernel past input", `{"kind":"conv","in_c":1,"in_h":2,"in_w":2,"out_c":1,"k":3,"s":1,"w":[1,1,1,1,1,1,1,1,1],"b":[0]}`},
		{"conv weight count", `{"kind":"conv","in_c":1,"in_h":4,"in_w":4,"out_c":1,"k":2,"s":1,"w":[1],"b":[0]}`},
		{"dense chain mismatch", `{"kind":"dense","in":2,"out":1,"w":[1,1],"b":[0]},{"kind":"dense","in":3,"out":1,"w":[1,1,1],"b":[0]}`},
		{"activation chain mismatch", `{"kind":"dense","in":2,"out":1,"w":[1,1],"b":[0]},{"kind":"relu","size":2}`},
		{"unknown kind", `{"kind":"softmax","size":2}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := `{"format":1,"layers":[` + tc.layers + `]}`
			if net, err := Load(strings.NewReader(model)); err == nil {
				t.Fatalf("Load accepted %s as %s", model, net)
			}
		})
	}
}

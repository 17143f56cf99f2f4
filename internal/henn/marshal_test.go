package henn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/efficientfhe/smartpaf/internal/paf"
)

// testMLP builds a deterministic two-layer MLP with a PAF activation, the
// shape a registry deploys.
func testMLP(seed int64) *MLP {
	rng := rand.New(rand.NewSource(seed))
	newLinear := func(in, out int, bias bool) *Linear {
		l := &Linear{In: in, Out: out, W: make([][]float64, out)}
		if bias {
			l.B = make([]float64, out)
		}
		for i := range l.W {
			l.W[i] = make([]float64, in)
			for j := range l.W[i] {
				l.W[i][j] = rng.NormFloat64()
			}
			if bias {
				l.B[i] = rng.NormFloat64() * 0.1
			}
		}
		return l
	}
	return &MLP{Layers: []any{
		newLinear(16, 8, true),
		&Activation{PAF: paf.MustNew(paf.FormF1G2), Scale: 4},
		newLinear(8, 4, false), // exercise the no-bias path
	}}
}

// TestMLPMarshalRoundTrip: the decoded network is structurally identical and
// computes identical plaintext inferences.
func TestMLPMarshalRoundTrip(t *testing.T) {
	mlp := testMLP(5)
	data, err := mlp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got := new(MLP)
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(mlp.Layers) {
		t.Fatalf("round trip kept %d layers, want %d", len(got.Layers), len(mlp.Layers))
	}
	for i, l := range mlp.Layers {
		switch v := l.(type) {
		case *Linear:
			g, ok := got.Layers[i].(*Linear)
			if !ok {
				t.Fatalf("layer %d: got %T, want *Linear", i, got.Layers[i])
			}
			if g.In != v.In || g.Out != v.Out || !reflect.DeepEqual(g.W, v.W) || !reflect.DeepEqual(g.B, v.B) {
				t.Fatalf("layer %d linear mismatch", i)
			}
		case *Activation:
			g, ok := got.Layers[i].(*Activation)
			if !ok {
				t.Fatalf("layer %d: got %T, want *Activation", i, got.Layers[i])
			}
			if g.Scale != v.Scale || g.PAF.Name != v.PAF.Name || g.PAF.Label != v.PAF.Label {
				t.Fatalf("layer %d activation metadata mismatch", i)
			}
			if len(g.PAF.Stages) != len(v.PAF.Stages) {
				t.Fatalf("layer %d: %d PAF stages, want %d", i, len(g.PAF.Stages), len(v.PAF.Stages))
			}
			for s := range v.PAF.Stages {
				if !reflect.DeepEqual(g.PAF.Stages[s].Coeffs, v.PAF.Stages[s].Coeffs) {
					t.Fatalf("layer %d stage %d coefficients mismatch", i, s)
				}
			}
		}
	}
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i%5)/5 - 0.4
	}
	want, gotOut := mlp.InferPlain(x), got.InferPlain(x)
	for i := range want {
		if want[i] != gotOut[i] {
			t.Fatalf("InferPlain diverged at %d: %g vs %g", i, gotOut[i], want[i])
		}
	}
	if got.LevelsRequired() != mlp.LevelsRequired() {
		t.Fatalf("LevelsRequired %d, want %d", got.LevelsRequired(), mlp.LevelsRequired())
	}
}

// TestMLPUnmarshalTruncations: every prefix of a valid payload must error
// cleanly, never panic — the deploy endpoint feeds this parser hostile bytes.
func TestMLPUnmarshalTruncations(t *testing.T) {
	data, err := testMLP(7).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if err := new(MLP).UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes unmarshaled cleanly", n, len(data))
		}
	}
	// Trailing garbage is also rejected: the artifact is exactly one MLP.
	if err := new(MLP).UnmarshalBinary(append(append([]byte{}, data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestMLPUnmarshalHostile covers the header-hardening paths.
func TestMLPUnmarshalHostile(t *testing.T) {
	valid, err := testMLP(9).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	badMagic := append([]byte{}, valid...)
	badMagic[0] ^= 0xff
	if err := new(MLP).UnmarshalBinary(badMagic); err == nil {
		t.Fatal("bad magic accepted")
	}

	hdr := func(vals ...uint32) []byte {
		var buf bytes.Buffer
		for _, v := range vals {
			_ = binary.Write(&buf, binary.LittleEndian, v)
		}
		return buf.Bytes()
	}
	// Implausible layer count.
	if err := new(MLP).UnmarshalBinary(hdr(mlpMagic, maxLayers+1)); err == nil {
		t.Fatal("implausible layer count accepted")
	}
	// Implausible linear dimensions: a hostile header must not force a huge
	// allocation before the bounds check.
	if err := new(MLP).UnmarshalBinary(hdr(mlpMagic, 1, layerKindLinear, 1<<31, 4, 0)); err == nil {
		t.Fatal("implausible linear dimension accepted")
	}
	// Unknown layer kind.
	if err := new(MLP).UnmarshalBinary(hdr(mlpMagic, 1, 99)); err == nil {
		t.Fatal("unknown layer kind accepted")
	}
}

// TestMLPUnmarshalRejectsNonFinite: NaN weights or activation scales would
// silently corrupt every inference; they must fail at the boundary.
func TestMLPUnmarshalRejectsNonFinite(t *testing.T) {
	mlp := testMLP(11)
	mlp.Layers[0].(*Linear).W[2][3] = math.NaN()
	if _, err := mlp.MarshalBinary(); err != nil {
		// Marshal does not re-check weights; only the wire boundary does.
		t.Fatalf("marshal with NaN weight: %v", err)
	}
	data, _ := mlp.MarshalBinary()
	if err := new(MLP).UnmarshalBinary(data); err == nil {
		t.Fatal("NaN weight accepted")
	}

	bad := testMLP(11)
	bad.Layers[1].(*Activation).Scale = math.Inf(1)
	if _, err := bad.MarshalBinary(); err == nil {
		t.Fatal("marshal accepted an infinite activation scale")
	}
}

// TestMLPMarshalRejectsUnserializable: only deployed layer types cross the
// wire.
func TestMLPMarshalRejectsUnserializable(t *testing.T) {
	if _, err := (&MLP{}).MarshalBinary(); err == nil {
		t.Fatal("empty MLP marshaled")
	}
	if _, err := (&MLP{Layers: []any{"nope"}}).MarshalBinary(); err == nil {
		t.Fatal("unknown layer type marshaled")
	}
}

// TestMLPWireFormatGolden pins the bytes of the MLP wire format: SHA-256 of
// testMLP(5), generated at the commit before the format moved onto
// internal/wire. Stored .hemodel files embed these bytes.
func TestMLPWireFormatGolden(t *testing.T) {
	const want = "d608bd6ee142e50ed3e9fc0a3995618bb7f606ebf69f8e7bee55d692e89ea7bd"
	data, err := testMLP(5).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%d bytes digest %s, want %s", len(data), got, want)
	}
}

package registry

import (
	"fmt"

	"github.com/efficientfhe/smartpaf/internal/henn"
	"github.com/efficientfhe/smartpaf/internal/wire"
)

// Binary wire format for the deployed-model artifact: what POST /v1/models
// accepts and what a state directory holds on disk (one .hemodel file per
// model version). It frames the henn.MLP wire format together with the prescribed
// parameter literal and the declared I/O dimensions, on the same internal/wire
// codec as the formats it nests — a hostile deploy payload must fail at the
// boundary.
//
// Layout (little-endian):
//
//	u32 magic | u32 nameLen | name | u32 inputDim | u32 outputDim |
//	u32 paramsLen | params literal bytes | u32 mlpLen | henn.MLP bytes

const (
	bundleMagic = uint32(0x5AF7CC08)

	maxBundleName  = 128
	maxParamsBytes = 1 << 12
	maxMLPBytes    = 1 << 30
	maxBundleDim   = 1 << 16
)

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Model) MarshalBinary() ([]byte, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	mlpBytes, err := m.MLP.MarshalBinary()
	if err != nil {
		return nil, err
	}
	paramBytes, err := m.Params.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var w wire.Writer
	w.U32(bundleMagic)
	w.Blob([]byte(m.Name))
	w.U32(uint32(m.InputDim))
	w.U32(uint32(m.OutputDim))
	w.Blob(paramBytes)
	w.Blob(mlpBytes)
	return w, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The decoded model is
// fully validated (name charset, dimension envelope, finite weights via the
// henn unmarshaler) — a successful decode is deployable as-is.
func (m *Model) UnmarshalBinary(data []byte) error {
	r := wire.NewReader("registry: model bundle", data)
	r.Magic(bundleMagic)
	out := Model{Name: string(r.Blob(maxBundleName)), InputDim: r.Count(maxBundleDim), OutputDim: r.Count(maxBundleDim)}
	paramBytes, mlpBytes := r.Blob(maxParamsBytes), r.Blob(maxMLPBytes)
	if err := r.Done(); err != nil {
		return err
	}
	if err := out.Params.UnmarshalBinary(paramBytes); err != nil {
		return fmt.Errorf("registry: model %q parameters: %w", out.Name, err)
	}
	out.MLP = new(henn.MLP)
	if err := out.MLP.UnmarshalBinary(mlpBytes); err != nil {
		return fmt.Errorf("registry: model %q network: %w", out.Name, err)
	}
	if err := out.Validate(); err != nil {
		return err
	}
	*m = out
	return nil
}

package phy

import "fmt"

// DecodeKernel selects the arithmetic the turbo decoder's SISO inner loop
// runs in. The kernel is fixed at decoder construction (buffers are sized
// per kernel); a pipeline names its kernel in DecodeProfile.Kernel.
type DecodeKernel uint8

const (
	// KernelInt16 is the default (zero-value) kernel: LLRs scaled by a
	// per-block power-of-two gain, saturated and quantized to Q6 int16 at
	// ingest, fully unrolled 8-state butterflies, periodic metric
	// renormalization, and — through BatchDecoderI16 — eight code blocks in
	// lockstep per SISO pass (AVX2 on amd64, a bit-identical pure-Go
	// fallback elsewhere). The ingest gain makes the quantization
	// scale-invariant, so the kernel sits on the float32 kernel's BLER
	// curve (measured parity, see turbo_i16.go) at a fraction of the cost.
	KernelInt16 DecodeKernel = iota
	// KernelFloat32 is the reference max-log-MAP kernel: float32 metrics,
	// table-driven trellis recursions, one block at a time. It is the
	// accuracy oracle the quantized kernel is tested against and runs only
	// where a caller names it.
	KernelFloat32
)

// String implements fmt.Stringer.
func (k DecodeKernel) String() string {
	switch k {
	case KernelFloat32:
		return "float32"
	case KernelInt16:
		return "int16"
	default:
		return fmt.Sprintf("DecodeKernel(%d)", uint8(k))
	}
}

// Validate reports whether k names a supported kernel.
func (k DecodeKernel) Validate() error {
	switch k {
	case KernelFloat32, KernelInt16:
		return nil
	}
	return fmt.Errorf("phy: unsupported decode kernel %d: %w", uint8(k), ErrBadParameter)
}

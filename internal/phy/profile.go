package phy

import "fmt"

// DecodeProfile declares the uplink decode pipeline a TransportProcessor is
// built from: the turbo SISO arithmetic, the front-end that feeds it, and
// the lockstep width. It is this package's processor option and nothing
// more: every processor outside it — a pool worker's, the cost model's
// calibration, the experiments' — is built from the zero value.
//
// The zero value is the default, and fastest, path: KernelInt16 at lockstep
// width 8, FrontEndFused with the host's vector tile kernels.
// The reference paths (KernelFloat32, Batch 1, FrontEndStaged,
// NoVectorFrontEnd) are test oracles and measurement columns; only this
// package's tests and benchmarks name them.
type DecodeProfile struct {
	// Kernel selects the turbo SISO arithmetic.
	Kernel DecodeKernel
	// FrontEnd selects the fused single-pass or the staged three-sweep decode
	// front-end. Outputs are bit-identical either way.
	FrontEnd FrontEnd
	// Batch is the lockstep width: a transport block's code blocks decode
	// Batch at a time, each span through one BatchDecoderI16 pass (a lone
	// leftover block goes to the scalar decoder; see spanDecoder for what
	// that costs against a one-lane pass). 0 means the kernel's own width
	// (see Width); 1 is scalar per-block decode, the oracle the lockstep
	// kernel is bit-identical to.
	Batch int
	// NoVectorFrontEnd forces the fused front-end's pure-Go tile kernels
	// even where the AVX2 ones are available (FrontEndAVX2). Outputs are
	// bit-identical either way; it exists for measurement (BenchmarkFullDecode's
	// novecfe column) and has no effect on the staged front-end.
	NoVectorFrontEnd bool
}

// maxProfileWidth is the widest lockstep a profile may name: the width the
// vector kernel runs at.
const maxProfileWidth = 8

// Width returns the lockstep width the profile decodes at: Batch, with 0
// resolved to the kernel's own width — 8 code blocks per SISO pass for
// KernelInt16, 1 (no lockstep kernel exists) for KernelFloat32.
func (p DecodeProfile) Width() int {
	switch {
	case p.Batch != 0:
		return p.Batch
	case p.Kernel == KernelInt16:
		return maxProfileWidth
	}
	return 1
}

// Validate reports whether the profile names a pipeline that exists;
// NewTransportProcessor rejects a profile by calling it.
func (p DecodeProfile) Validate() error {
	if err := p.Kernel.Validate(); err != nil {
		return err
	}
	if err := p.FrontEnd.Validate(); err != nil {
		return err
	}
	if p.Batch < 0 || p.Batch > maxProfileWidth {
		return fmt.Errorf("phy: lockstep width %d (want 0..%d): %w", p.Batch, maxProfileWidth, ErrBadParameter)
	}
	if p.Batch > 1 && p.Kernel != KernelInt16 {
		return fmt.Errorf("phy: lockstep width %d requires the int16 kernel, have %v: %w", p.Batch, p.Kernel, ErrBadParameter)
	}
	return nil
}

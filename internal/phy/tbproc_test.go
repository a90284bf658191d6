package phy

// tbProc binds a processor to one (MCS, PRB) configuration for the tests
// that walk a single shape end to end: it carries the shape every call
// needs and answers the shape questions (payload size, block count, …) the
// shape-free processor no longer does. Tests of what a processor keeps
// across shapes (TestProcessorReuseMatchesFresh, TestDecodeGoldenDigests)
// drive TransportProcessor directly.
type tbProc struct {
	*TransportProcessor
	sh tbShape
}

// newTBProc builds a processor sized for nprb, bound to the shape.
func newTBProc(mcs MCS, nprb int, o DecodeProfile) (*tbProc, error) {
	sh, err := shapeOf(mcs, nprb)
	if err != nil {
		return nil, err
	}
	p, err := NewTransportProcessor(nprb, o)
	if err != nil {
		return nil, err
	}
	return &tbProc{p, sh}, nil
}

func (p *tbProc) Encode(payload []byte, rnti, cellID uint16, subframe uint8, rv int) ([]complex128, error) {
	return p.TransportProcessor.Encode(p.sh.mcs, p.sh.nprb, payload, rnti, cellID, subframe, rv)
}

func (p *tbProc) Decode(rx []complex128, n0 float64, rnti, cellID uint16, subframe uint8, rv int, sb *SoftBuffer) ([]byte, error) {
	return p.TransportProcessor.Decode(p.sh.mcs, p.sh.nprb, rx, n0, rnti, cellID, subframe, rv, sb)
}

func (p *tbProc) MCS() MCS                { return p.sh.mcs }
func (p *tbProc) TransportBlockSize() int { return p.sh.tbs }
func (p *tbProc) NumCodeBlocks() int      { return p.sh.seg.C }
func (p *tbProc) CodeBlockSize() int      { return p.sh.seg.K }
func (p *tbProc) NumSymbols() int         { return p.sh.numSymbols() }

func (p *tbProc) NewSoftBuffer() *SoftBuffer { return newSoftBuffer(p.sh.seg.C, p.sh.seg.K+4) }

// newSoftBuffer returns a zeroed buffer of c code blocks of three d-long
// streams.
func newSoftBuffer(c, d int) *SoftBuffer {
	sb := &SoftBuffer{}
	sb.reshape(c, d)
	return sb
}

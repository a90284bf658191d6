package phy

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"testing"
)

// shapesByK groups the shapes of up to maxPRB resource blocks by their turbo
// block size, each group in (MCS, PRB) order.
func shapesByK(t testing.TB, maxPRB int) map[int][]tbShape {
	t.Helper()
	byK := map[int][]tbShape{}
	for m := MCS(0); m <= MaxMCS; m++ {
		for n := 1; n <= maxPRB; n++ {
			sh, err := shapeOf(m, n)
			if err != nil {
				t.Fatal(err)
			}
			byK[sh.seg.K] = append(byK[sh.seg.K], sh)
		}
	}
	return byK
}

// jointCase is one transport block of a joint-decode test: what was sent,
// how it was received, and the soft buffer it combines into (nil: none).
type jointCase struct {
	sh       tbShape
	rnti     uint16
	cell     uint16
	subframe uint8
	payload  []byte
	rv       int
	rx       []complex128
	n0       float64
	soft     *SoftBuffer
}

// send encodes the case's payload at its redundancy version and receives it
// through AWGN at snrDB.
func (c *jointCase) send(t testing.TB, enc *TransportProcessor, snrDB float64, seed int64) {
	t.Helper()
	syms, err := enc.Encode(c.sh.mcs, c.sh.nprb, c.payload, c.rnti, c.cell, c.subframe, c.rv)
	if err != nil {
		t.Fatal(err)
	}
	c.rx = append([]complex128(nil), syms...)
	ch := NewAWGNChannel(snrDB, seed)
	ch.Apply(c.rx)
	c.n0 = ch.N0()
}

func (c *jointCase) tb() TBDecode {
	return TBDecode{MCS: c.sh.mcs, NPRB: c.sh.nprb, RX: c.rx, N0: c.n0, RNTI: c.rnti, CellID: c.cell, Subframe: c.subframe, RV: c.rv, Soft: c.soft}
}

// cloneSoft returns a copy of sb (nil for nil).
func cloneSoft(t testing.TB, sb *SoftBuffer) *SoftBuffer {
	t.Helper()
	if sb == nil {
		return nil
	}
	c := newSoftBuffer(sb.Blocks(), sb.StreamLen())
	if _, err := c.Unmarshal(sb.MarshalAppend(nil)); err != nil {
		t.Fatal(err)
	}
	return c
}

// checkJointAgainstAlone decodes the cases jointly on joint and each alone on
// alone, from the same soft-buffer state, and fails unless every transport
// block's payload, outcome, iteration count and soft buffer agree. The cases'
// own soft buffers end in the jointly decoded state.
func checkJointAgainstAlone(t testing.TB, joint, alone *TransportProcessor, cases []*jointCase) {
	t.Helper()
	type outcome struct {
		payload []byte
		err     error
		iters   int
		soft    []byte
	}
	want := make([]outcome, len(cases))
	total := 0
	for i, c := range cases {
		sb := cloneSoft(t, c.soft)
		out, err := alone.Decode(c.sh.mcs, c.sh.nprb, c.rx, c.n0, c.rnti, c.cell, c.subframe, c.rv, sb)
		if err != nil && !errors.Is(err, ErrCRC) {
			t.Fatalf("case %d alone: %v", i, err)
		}
		want[i] = outcome{payload: append([]byte(nil), out...), err: err, iters: alone.Timings.TurboIterations}
		if sb != nil {
			want[i].soft = sb.MarshalAppend(nil)
		}
		total += want[i].iters
	}
	tbs := make([]TBDecode, len(cases))
	for i, c := range cases {
		tbs[i] = c.tb()
	}
	joint.DecodeJoint(tbs)
	for i, c := range cases {
		got := outcome{payload: tbs[i].Payload, err: tbs[i].Err, iters: tbs[i].TurboIterations}
		if c.soft != nil {
			got.soft = c.soft.MarshalAppend(nil)
		}
		w := want[i]
		if (got.err == nil) != (w.err == nil) || errors.Is(got.err, ErrCRC) != errors.Is(w.err, ErrCRC) ||
			got.iters != w.iters || !bytes.Equal(got.payload, w.payload) || !bytes.Equal(got.soft, w.soft) {
			t.Fatalf("case %d (MCS %d / %d PRB, C=%d, rv %d): joint err=%v iters=%d, alone err=%v iters=%d (payload equal %v, soft equal %v)",
				i, c.sh.mcs, c.sh.nprb, c.sh.seg.C, c.rv, got.err, got.iters, w.err, w.iters,
				bytes.Equal(got.payload, w.payload), bytes.Equal(got.soft, w.soft))
		}
		if got.err == nil && !bytes.Equal(got.payload, c.payload) {
			t.Fatalf("case %d: joint decode passed CRC with a payload that was not sent", i)
		}
	}
	if joint.Timings.TurboIterations != total {
		t.Fatalf("joint Timings.TurboIterations %d, want the transport blocks' %d", joint.Timings.TurboIterations, total)
	}
}

// mixedK returns a K whose shapes include a single-block transport block and
// segmented ones of two and three blocks, with one shape of each.
func mixedK(t testing.TB) (k int, byC map[int]tbShape) {
	t.Helper()
	groups := shapesByK(t, MaxPRB)
	ks := make([]int, 0, len(groups))
	for k := range groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	for _, k := range ks {
		byC = map[int]tbShape{}
		for _, sh := range groups[k] {
			if _, ok := byC[sh.seg.C]; !ok {
				byC[sh.seg.C] = sh
			}
		}
		_, one := byC[1]
		_, two := byC[2]
		_, three := byC[3]
		if one && two && three {
			return k, byC
		}
	}
	t.Fatal("no K serves one-, two- and three-block transport blocks")
	return 0, nil
}

// TestDecodeJointMatchesDecode is the claim's phy contract: transport blocks
// of one K — single-block and segmented, of different cells, RNTIs and
// subframes, with and without a HARQ buffer — decoded in one DecodeJoint
// call give each exactly what Decode gives it alone on the same profile, and
// a retransmission combines into its buffer inside a shared span as it
// would alone.
func TestDecodeJointMatchesDecode(t *testing.T) {
	k, byC := mixedK(t)
	t.Logf("K=%d: C=1 MCS %d/%d PRB, C=2 MCS %d/%d PRB, C=3 MCS %d/%d PRB", k,
		byC[1].mcs, byC[1].nprb, byC[2].mcs, byC[2].nprb, byC[3].mcs, byC[3].nprb)
	enc, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	// Eight lanes: 3 + 2 + 1 + 1 + 1, two of the single-block ones and the
	// two-block one on HARQ buffers.
	plan := []struct {
		c    int
		harq bool
	}{{3, false}, {2, true}, {1, true}, {1, false}, {1, true}}
	cases := make([]*jointCase, len(plan))
	for i, pl := range plan {
		sh := byC[pl.c]
		c := &jointCase{sh: sh, rnti: uint16(60 + i), cell: uint16(3 + i%2), subframe: uint8(i), payload: randBits(rng, sh.tbs)}
		if pl.harq {
			c.soft = newSoftBuffer(sh.seg.C, sh.seg.K+4)
		}
		cases[i] = c
	}
	for name, o := range map[string]DecodeProfile{
		"default": {},
		"scalar":  {Batch: 1},
		"width4":  {Batch: 4},
		"staged":  {FrontEnd: FrontEndStaged},
	} {
		t.Run(name, func(t *testing.T) {
			joint, err := NewTransportProcessor(MaxPRB, o)
			if err != nil {
				t.Fatal(err)
			}
			alone, err := NewTransportProcessor(MaxPRB, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				if c.soft != nil {
					c.soft.Reset()
				}
			}
			// First transmissions just below the operating point, where some
			// blocks fail; then the HARQ cases' retransmissions at RV 2
			// combine in a shared span beside fresh single-block ones.
			for i, c := range cases {
				c.rv = 0
				c.send(t, enc, c.sh.mcs.OperatingSNR()-0.6, int64(100+i))
			}
			checkJointAgainstAlone(t, joint, alone, cases)
			var retx []*jointCase
			for i, c := range cases {
				if c.soft != nil {
					c.rv = 2
					c.send(t, enc, c.sh.mcs.OperatingSNR()-0.6, int64(200+i))
					retx = append(retx, c)
				}
			}
			for i := 0; len(retx) < 5; i++ {
				c := &jointCase{sh: byC[1], rnti: uint16(90 + i), cell: 5, subframe: 9, payload: randBits(rng, byC[1].tbs)}
				c.send(t, enc, c.sh.mcs.OperatingSNR()+2, int64(300+i))
				retx = append(retx, c)
			}
			checkJointAgainstAlone(t, joint, alone, retx)
		})
	}
}

// TestDecodeJointRejects checks DecodeJoint's admission: a transport block
// of another K, one that overflows the span, and one with a malformed
// argument each report ErrBadParameter and are not decoded, while the
// others decode as they would alone.
func TestDecodeJointRejects(t *testing.T) {
	k, byC := mixedK(t)
	var other tbShape
	for kk, g := range shapesByK(t, 10) {
		if kk != k {
			other = g[0]
			break
		}
	}
	enc, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	mk := func(sh tbShape, i int) *jointCase {
		c := &jointCase{sh: sh, rnti: uint16(i), cell: 1, payload: randBits(rng, sh.tbs)}
		c.send(t, enc, sh.mcs.OperatingSNR()+3, int64(i))
		return c
	}
	// 3 + 1 + (other K) + 3 + (bad rx) + 1 + 2 (overflow): the first,
	// second, fourth and sixth decode.
	cases := []*jointCase{mk(byC[3], 1), mk(byC[1], 2), mk(other, 3), mk(byC[3], 4), mk(byC[1], 5), mk(byC[1], 6), mk(byC[2], 7)}
	cases[4].rx = cases[4].rx[1:]
	tbs := make([]TBDecode, len(cases))
	for i, c := range cases {
		tbs[i] = c.tb()
	}
	p, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	p.DecodeJoint(tbs)
	for i, tb := range tbs {
		rejected := i == 2 || i == 4 || i == 6
		switch {
		case rejected && (!errors.Is(tb.Err, ErrBadParameter) || tb.TurboIterations != 0 || tb.Payload != nil):
			t.Errorf("transport block %d: err=%v iters=%d, want ErrBadParameter and no decode", i, tb.Err, tb.TurboIterations)
		case !rejected && (tb.Err != nil || !bytes.Equal(tb.Payload, cases[i].payload)):
			t.Errorf("transport block %d: %v", i, tb.Err)
		}
	}
	if got := p.Timings.Spans[8]; got != 1 {
		t.Errorf("the accepted 3+1+3+1 blocks decoded in %v spans, want one of 8", p.Timings.Spans)
	}
}

// TestDecodeJointNoAlloc: a warm joint decode of eight single-block
// transport blocks — a full claim, half of them on caller buffers —
// allocates nothing.
func TestDecodeJointNoAlloc(t *testing.T) {
	_, byC := mixedK(t)
	enc, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(47))
	tbs := make([]TBDecode, MaxJointBlocks)
	for i := range tbs {
		c := &jointCase{sh: byC[1], rnti: uint16(i), cell: uint16(i % 3), subframe: uint8(i), payload: randBits(rng, byC[1].tbs)}
		c.send(t, enc, c.sh.mcs.OperatingSNR()+3, int64(i))
		if i%2 == 0 {
			c.soft = newSoftBuffer(1, c.sh.seg.K+4)
		}
		tbs[i] = c.tb()
	}
	p, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		for i := range tbs {
			if tbs[i].Soft != nil {
				tbs[i].Soft.Reset()
			}
		}
		p.DecodeJoint(tbs)
		for i := range tbs {
			if tbs[i].Err != nil {
				t.Fatalf("transport block %d: %v", i, tbs[i].Err)
			}
		}
	}
	run()
	if a := testing.AllocsPerRun(5, run); a > 0 {
		t.Fatalf("a warm joint decode of %d transport blocks allocates %v times", len(tbs), a)
	}
	if p.Timings.Spans[MaxJointBlocks] != 1 {
		t.Fatalf("spans %v, want one full span", p.Timings.Spans)
	}
}

// FuzzJointSpan compares DecodeJoint with per-transport-block Decode on
// random joints: a K drawn from every K a MaxPRB processor meets, transport
// blocks of that K drawn while their code blocks fit one span, received
// around the operating point, some combining into HARQ buffers that already
// hold a first transmission.
func FuzzJointSpan(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(7), int8(0))
	f.Add(int64(2), uint8(40), uint8(3), int8(-10))
	f.Add(int64(3), uint8(130), uint8(5), int8(20))
	f.Add(int64(4), uint8(187), uint8(8), int8(-4))
	groups := shapesByK(f, MaxPRB)
	ks := make([]int, 0, len(groups))
	for k := range groups {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	f.Fuzz(func(t *testing.T, seed int64, kSel, nSel uint8, snrTenths int8) {
		group := groups[ks[int(kSel)%len(ks)]]
		rng := rand.New(rand.NewSource(seed))
		enc, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
		if err != nil {
			t.Fatal(err)
		}
		var cases []*jointCase
		lanes := 0
		for tries := 0; tries < 4*MaxJointBlocks && len(cases) < 1+int(nSel)%MaxJointBlocks; tries++ {
			sh := group[rng.Intn(len(group))]
			if lanes > 0 && lanes+sh.seg.C > MaxJointBlocks {
				continue
			}
			lanes += sh.seg.C
			c := &jointCase{sh: sh, rnti: uint16(rng.Intn(1 << 16)), cell: uint16(rng.Intn(504)), subframe: uint8(rng.Intn(10)), payload: randBits(rng, sh.tbs)}
			snr := sh.mcs.OperatingSNR() + float64(snrTenths)/10
			if rng.Intn(2) == 0 {
				c.soft = newSoftBuffer(sh.seg.C, sh.seg.K+4)
				if rng.Intn(2) == 0 {
					// A first transmission already combined into the buffer.
					c.send(t, enc, snr, rng.Int63())
					if _, err := enc.Decode(sh.mcs, sh.nprb, c.rx, c.n0, c.rnti, c.cell, c.subframe, 0, c.soft); err != nil && !errors.Is(err, ErrCRC) {
						t.Fatal(err)
					}
					c.rv = 2
				}
			}
			c.send(t, enc, snr, rng.Int63())
			cases = append(cases, c)
			if lanes > MaxJointBlocks {
				break
			}
		}
		alone, err := NewTransportProcessor(MaxPRB, DecodeProfile{})
		if err != nil {
			t.Fatal(err)
		}
		checkJointAgainstAlone(t, enc, alone, cases)
	})
}

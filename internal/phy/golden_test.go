package phy

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// updateGolden regenerates testdata/decode_golden.txt from the decoders in
// the tree: go test ./internal/phy -run TestDecodeGoldenDigests -update-golden.
// The committed file was generated before the processors lost their shape,
// so regenerating it is only ever right for a deliberate change of
// arithmetic.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decode_golden.txt")

const goldenFile = "testdata/decode_golden.txt"

type goldenShape struct {
	mcs  MCS
	nprb int
}

// goldenShapes is the seeded shape sweep: per modulation, single-block
// shapes with filler bits, single-block shapes at large, and multi-block
// shapes, 66 in all.
func goldenShapes(t *testing.T) []goldenShape {
	rng := rand.New(rand.NewSource(20221))
	seen := map[goldenShape]bool{}
	var out []goldenShape
	pick := func(n int, mcsLo, mcsHi MCS, prbLo, prbHi int, want func(Segmentation) bool) {
		for tries := 0; n > 0; tries++ {
			if tries > 10000 {
				t.Fatalf("golden sweep: no shape in MCS %d-%d, PRB %d-%d", mcsLo, mcsHi, prbLo, prbHi)
			}
			s := goldenShape{mcsLo + MCS(rng.Intn(int(mcsHi-mcsLo)+1)), prbLo + rng.Intn(prbHi-prbLo+1)}
			tbs, err := s.mcs.TransportBlockSize(s.nprb)
			if err != nil {
				t.Fatal(err)
			}
			seg, err := Segment(tbs + 24)
			if err != nil {
				t.Fatal(err)
			}
			if seen[s] || !want(seg) {
				continue
			}
			seen[s] = true
			out = append(out, s)
			n--
		}
	}
	for _, m := range []struct{ lo, hi MCS }{{0, 10}, {11, 20}, {21, 28}} {
		pick(8, m.lo, m.hi, 1, 25, func(s Segmentation) bool { return s.C == 1 && s.F > 0 })
		pick(8, m.lo, m.hi, 1, 45, func(s Segmentation) bool { return s.C == 1 })
		pick(6, m.lo, m.hi, 8, 100, func(s Segmentation) bool { return s.C > 1 })
	}
	return out
}

// goldenTB is one transport block of the sweep: its payload and the noisy
// symbols of its first transmission (RV 0) and its retransmission (RV 2).
type goldenTB struct {
	rnti    uint16
	payload []byte
	rx      [2][]complex128
	n0      float64
}

var goldenRVs = [2]int{0, 2}

// goldenDigest folds one decode's outcome — payload (or its absence), the
// soft buffer it left behind, the iterations it spent — into h.
func goldenDigest(h io.Writer, payload []byte, err error, sb *SoftBuffer, iters int) {
	if err != nil {
		h.Write([]byte{0})
	} else {
		h.Write([]byte{1})
		h.Write(payload)
	}
	h.Write(sb.MarshalAppend(nil))
	var n [4]byte
	binary.BigEndian.PutUint32(n[:], uint32(iters))
	h.Write(n[:])
}

// TestDecodeGoldenDigests pins the decode chain bit for bit against a file
// generated before the processors, decoders and rate matchers lost their
// shape: every shape of the sweep is sent at its operating-point SNR (so
// some blocks stop early, some run to the iteration cap and some fail their
// CRC), RV 0 then RV 2 into one soft buffer, through the int16 lockstep,
// int16 scalar and float32 decoders, as a solo Decode of the first transport
// block and as serial decodes of three transport blocks, block j on
// processor j, and payload ‖ soft buffer ‖ iteration count of each
// transport block is hashed. Three processors per variant serve the whole
// sweep, so whatever a decode leaves behind in them meets every later shape.
func TestDecodeGoldenDigests(t *testing.T) {
	variants := []struct {
		name string
		opts DecodeProfile
	}{
		{"i16x8", DecodeProfile{}},
		{"i16x1", DecodeProfile{Batch: 1}},
		{"f32", DecodeProfile{Kernel: KernelFloat32}},
	}
	rigs := make([]*goldenRig, len(variants))
	for i, v := range variants {
		rigs[i] = newGoldenRig(t, v.opts)
	}
	enc := newGoldenRig(t, DecodeProfile{})

	var lines []string
	failed, passed, capped := 0, 0, 0
	for si, s := range goldenShapes(t) {
		tbs, err := s.mcs.TransportBlockSize(s.nprb)
		if err != nil {
			t.Fatal(err)
		}
		tbsOf := make([]goldenTB, 3)
		for j := range tbsOf {
			seed := int64(si)*31 + int64(j)*7 + 1
			tb := &tbsOf[j]
			tb.rnti = uint16(40 + j)
			tb.payload = randBits(rand.New(rand.NewSource(seed)), tbs)
			ch := NewAWGNChannel(s.mcs.OperatingSNR(), seed)
			tb.n0 = ch.N0()
			for r, rv := range goldenRVs {
				tb.rx[r] = append([]complex128(nil), enc.encode(t, s, tb.payload, tb.rnti, rv)...)
				ch.Apply(tb.rx[r])
			}
		}
		for vi, v := range variants {
			rig := rigs[vi]
			// Solo: the first transport block alone.
			solo := sha256.New()
			sb := mustSoftBuffer(t, s)
			for r, rv := range goldenRVs {
				out, iters, err := rig.decode(t, s, tbsOf[0].rx[r], tbsOf[0].n0, tbsOf[0].rnti, rv, sb)
				goldenDigest(solo, out, err, sb, iters)
				if r == 0 {
					switch {
					case err != nil:
						failed++
					case iters >= DefaultTurboIterations:
						capped++
						passed++
					default:
						passed++
					}
				}
			}
			lines = append(lines, fmt.Sprintf("mcs=%d nprb=%d %s solo tb=0 %x", s.mcs, s.nprb, v.name, solo.Sum(nil)))

			// Serial: all three in turn per transmission, each on its own
			// processor.
			hs := [3]hash.Hash{sha256.New(), sha256.New(), sha256.New()}
			sbs := [3]*SoftBuffer{mustSoftBuffer(t, s), mustSoftBuffer(t, s), mustSoftBuffer(t, s)}
			for r, rv := range goldenRVs {
				for j := range tbsOf {
					tb := &tbsOf[j]
					out, iters, err := rig.decodeOn(t, j, s, tb.rx[r], tb.n0, tb.rnti, rv, sbs[j])
					goldenDigest(hs[j], out, err, sbs[j], iters)
				}
			}
			for j := range hs {
				lines = append(lines, fmt.Sprintf("mcs=%d nprb=%d %s serial tb=%d %x", s.mcs, s.nprb, v.name, j, hs[j].Sum(nil)))
			}
			// One transport block decodes the same on a processor whatever it
			// decoded before.
			if a, b := lines[len(lines)-4], lines[len(lines)-3]; a[strings.LastIndexByte(a, ' '):] != b[strings.LastIndexByte(b, ' '):] {
				t.Errorf("solo and serial digests of one transport block differ:\n%s\n%s", a, b)
			}
		}
	}
	if failed == 0 || passed == 0 || capped == 0 {
		t.Fatalf("sweep covers %d failed, %d passed, %d iteration-capped first transmissions; want some of each", failed, passed, capped)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(lines), goldenFile)
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n, bad := 0, 0
	for ; sc.Scan(); n++ {
		if n >= len(lines) {
			break
		}
		if sc.Text() != lines[n] {
			if bad++; bad <= 5 {
				t.Errorf("digest %d differs:\n  golden %s\n  got    %s", n, sc.Text(), lines[n])
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(lines) || sc.Scan() {
		t.Fatalf("golden file holds a different number of digests than the sweep's %d", len(lines))
	}
	if bad > 0 {
		t.Fatalf("%d of %d digests differ from %s", bad, n, goldenFile)
	}
}

func mustSoftBuffer(t *testing.T, s goldenShape) *SoftBuffer {
	t.Helper()
	sb, err := NewSoftBuffer(s.mcs, s.nprb)
	if err != nil {
		t.Fatal(err)
	}
	return sb
}

// goldenRig is the only part of this file that names the processor API:
// three processors sized for the largest transport block, and the calls the
// sweep makes on them.
type goldenRig struct {
	procs [3]*TransportProcessor
}

func newGoldenRig(t *testing.T, o DecodeProfile) *goldenRig {
	t.Helper()
	g := &goldenRig{}
	for i := range g.procs {
		var err error
		if g.procs[i], err = NewTransportProcessor(MaxPRB, o); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func (g *goldenRig) encode(t *testing.T, s goldenShape, payload []byte, rnti uint16, rv int) []complex128 {
	t.Helper()
	syms, err := g.procs[0].Encode(s.mcs, s.nprb, payload, rnti, 101, 4, rv)
	if err != nil {
		t.Fatal(err)
	}
	return syms
}

func (g *goldenRig) decode(t *testing.T, s goldenShape, rx []complex128, n0 float64, rnti uint16, rv int, sb *SoftBuffer) ([]byte, int, error) {
	t.Helper()
	return g.decodeOn(t, 0, s, rx, n0, rnti, rv, sb)
}

// decodeOn decodes on processor j.
func (g *goldenRig) decodeOn(t *testing.T, j int, s goldenShape, rx []complex128, n0 float64, rnti uint16, rv int, sb *SoftBuffer) ([]byte, int, error) {
	t.Helper()
	p := g.procs[j]
	out, err := p.Decode(s.mcs, s.nprb, rx, n0, rnti, 101, 4, rv, sb)
	return out, p.Timings.TurboIterations, err
}

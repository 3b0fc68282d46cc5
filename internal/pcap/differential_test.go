package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

// decoder is what the differential tests drive on both the production
// Reader and the reference oracleReader.
type decoder interface {
	NextPacket(*Packet) error
	Stats() Stats
}

// bothReaders opens the production reader or the oracle over a source.
var bothReaders = []struct {
	name string
	open func(io.Reader) (decoder, error)
}{
	{"window", func(r io.Reader) (decoder, error) { return NewReader(r) }},
	{"oracle", func(r io.Reader) (decoder, error) { return newOracleReader(r) }},
}

// buildCapture frames records as a classic pcap in the given byte order:
// nanos picks the nanosecond magic, and each record's captured and original
// lengths are len(frame).
func buildCapture(order binary.ByteOrder, nanos bool, link uint32, frames ...[]byte) []byte {
	var buf bytes.Buffer
	hdr := make([]byte, globalHdrLen)
	magic := uint32(magicUsecLE)
	if nanos {
		magic = magicNsecLE
	}
	order.PutUint32(hdr[0:4], magic)
	order.PutUint16(hdr[4:6], 2)
	order.PutUint16(hdr[6:8], 4)
	order.PutUint32(hdr[16:20], 1<<16)
	order.PutUint32(hdr[20:24], link)
	buf.Write(hdr)
	for i, frame := range frames {
		rec := make([]byte, recHdrLen)
		order.PutUint32(rec[0:4], uint32(1_700_000_000+i))
		order.PutUint32(rec[4:8], uint32(i*7919%1_000_000))
		order.PutUint32(rec[8:12], uint32(len(frame)))
		order.PutUint32(rec[12:16], uint32(len(frame)+i%3))
		buf.Write(rec)
		buf.Write(frame)
	}
	return buf.Bytes()
}

// ethFrame is an Ethernet frame of the given ether type around payload,
// with one 802.1Q tag when vlan is set.
func ethFrame(etherType uint16, vlan bool, payload []byte) []byte {
	frame := make([]byte, 14, 18+len(payload))
	if vlan {
		binary.BigEndian.PutUint16(frame[12:14], 0x8100)
		frame = binary.BigEndian.AppendUint16(append(frame, 0, 1), etherType)
	} else {
		binary.BigEndian.PutUint16(frame[12:14], etherType)
	}
	return append(frame, payload...)
}

// ipv4Packet is an IPv4 header with optWords 32-bit words of options, the
// given protocol and fragment field, followed by l4.
func ipv4Packet(proto uint8, frag uint16, optWords int, src, dst uint32, l4 []byte) []byte {
	ihl := 20 + 4*optWords
	ip := make([]byte, ihl, ihl+len(l4))
	ip[0] = 0x40 | byte(ihl/4)
	binary.BigEndian.PutUint16(ip[6:8], frag)
	ip[8] = 64
	ip[9] = proto
	binary.BigEndian.PutUint32(ip[12:16], src)
	binary.BigEndian.PutUint32(ip[16:20], dst)
	return append(ip, l4...)
}

func ports(src, dst uint16) []byte {
	return binary.BigEndian.AppendUint16(binary.BigEndian.AppendUint16(nil, src), dst)
}

// mixedFrames is one Ethernet record of every kind the reader tells apart:
// parsed TCP, UDP and ICMP (plain, VLAN-tagged, with IP options, padded),
// and every skip class.
func mixedFrames(i int) [][]byte {
	src, dst := uint32(0x0a000000+i), uint32(0xc0a80000+i*31)
	return [][]byte{
		ethFrame(0x0800, false, ipv4Packet(6, 0x4000, 0, src, dst, ports(uint16(i), 80))),
		ethFrame(0x0800, true, ipv4Packet(17, 0, 0, dst, src, ports(53, uint16(i)))),
		ethFrame(0x0800, false, ipv4Packet(1, 0, 0, src, dst, []byte{8, 0, 0, 0})),
		// First fragment, with IP options.
		ethFrame(0x0800, false, ipv4Packet(6, 0x2000, 2, src, dst, ports(443, 1024))),
		// Later fragment.
		ethFrame(0x0800, false, ipv4Packet(6, 0x00b9, 0, src, dst, ports(1, 2))),
		// ARP, and IPv6 behind a VLAN tag.
		ethFrame(0x0806, false, make([]byte, 28)),
		ethFrame(0x86dd, true, make([]byte, 48)),
		// IP version 6 in an IPv4-typed frame.
		ethFrame(0x0800, false, append([]byte{0x65}, make([]byte, 23)...)),
		// GRE.
		ethFrame(0x0800, false, ipv4Packet(47, 0, 0, src, dst, make([]byte, 4))),
		// Cut short: UDP ports, IP options, the VLAN tag, the Ethernet header.
		ethFrame(0x0800, false, ipv4Packet(17, 0, 0, src, dst, []byte{0, 53})),
		ethFrame(0x0800, false, ipv4Packet(6, 0, 3, src, dst, nil)[:30]),
		ethFrame(0x0800, true, nil)[:16],
		make([]byte, 9),
		// A full-size frame.
		ethFrame(0x0800, false, ipv4Packet(6, 0, 0, src, dst, append(ports(80, 8080), make([]byte, 1400)...))),
	}
}

// mixedCapture is n rounds of mixedFrames: 14n records, about 2 KB per
// round, so a few dozen rounds already straddle the reader's window.
func mixedCapture(order binary.ByteOrder, nanos bool, n int) []byte {
	var frames [][]byte
	for i := range n {
		frames = append(frames, mixedFrames(i)...)
	}
	return buildCapture(order, nanos, LinkEthernet, frames...)
}

// rawCapture is a raw-IP capture, the link type without an Ethernet header.
func rawCapture() []byte {
	return buildCapture(binary.LittleEndian, false, LinkRaw,
		ipv4Packet(6, 0, 1, 1, 2, ports(3, 4)),
		ipv4Packet(1, 0, 0, 5, 6, nil),
		make([]byte, 12))
}

// drain reads d to its first error and returns every packet before it.
func drain(d decoder) ([]Packet, error) {
	var pkts []Packet
	for {
		var p Packet
		if err := d.NextPacket(&p); err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// sameOutcome fails unless two terminal errors agree: both nil, both the
// bare io.EOF, or both errors with the same message.
func sameOutcome(t *testing.T, what string, got, want error) {
	t.Helper()
	switch {
	case (got == nil) != (want == nil), (got == io.EOF) != (want == io.EOF):
		t.Fatalf("%s: outcome %v, oracle %v", what, got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("%s: error %q, oracle %q", what, got, want)
	}
}

// FuzzReaderDifferential requires the window reader, driven through
// ReadBlock with a block size taken from the input, to yield exactly the
// oracle's packets, Stats and terminal outcome on arbitrary bytes.
func FuzzReaderDifferential(f *testing.F) {
	le, be := binary.LittleEndian, binary.BigEndian
	implausible := buildCapture(le, false, LinkEthernet, mixedFrames(0)[0])
	le.PutUint32(implausible[globalHdrLen+8:], maxCapLen+1)
	sample := writeSample(f)
	for _, seed := range [][]byte{
		sample,
		mixedCapture(le, false, 1),
		mixedCapture(be, true, 1),
		buildCapture(le, false, LinkEthernet, mixedFrames(1)[1]), // VLAN
		buildCapture(be, false, LinkEthernet, mixedFrames(2)[4]), // fragment
		buildCapture(le, true, LinkEthernet, mixedFrames(3)[5]),  // non-IPv4
		buildCapture(le, false, LinkEthernet, mixedFrames(4)[3]), // IP options
		rawCapture(),
		sample[:len(sample)-5],            // truncated body
		sample[:globalHdrLen+recHdrLen/2], // truncated record header
		implausible,
		[]byte("not a pcap at all"),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, werr := newOracleReader(bytes.NewReader(data))
		got, gerr := NewReader(bytes.NewReader(data))
		sameOutcome(t, "NewReader", gerr, werr)
		if werr != nil {
			return
		}
		if got.LinkType() != want.LinkType() {
			t.Fatalf("link type %d, oracle %d", got.LinkType(), want.LinkType())
		}
		wantPkts, werr := drain(want)
		block := make([]Packet, 1+len(data)%9)
		var gotPkts []Packet
		for {
			n, err := got.ReadBlock(block)
			gotPkts = append(gotPkts, block[:n]...)
			if err != nil {
				gerr = err
				break
			}
			if n != len(block) {
				t.Fatalf("ReadBlock returned %d of %d packets with a nil error", n, len(block))
			}
		}
		sameOutcome(t, "decode", gerr, werr)
		if len(gotPkts) != len(wantPkts) {
			t.Fatalf("%d packets, oracle %d", len(gotPkts), len(wantPkts))
		}
		for i := range gotPkts {
			if gotPkts[i] != wantPkts[i] {
				t.Fatalf("packet %d: %+v, oracle %+v", i, gotPkts[i], wantPkts[i])
			}
		}
		if got.Stats() != want.Stats() {
			t.Fatalf("stats %+v, oracle %+v", got.Stats(), want.Stats())
		}
	})
}

// stallReader returns (0, nil) stalls times before every read it passes on.
type stallReader struct {
	r      io.Reader
	stalls int
	left   int
}

func (s *stallReader) Read(p []byte) (int, error) {
	if s.left > 0 {
		s.left--
		return 0, nil
	}
	s.left = s.stalls
	return s.r.Read(p)
}

// TestReaderSources reads the same capture through awkward sources: every
// one must give both readers the packets and Stats a plain bytes.Reader
// gives, and end in a clean io.EOF.
func TestReaderSources(t *testing.T) {
	data := mixedCapture(binary.LittleEndian, false, 60)
	if len(data) <= windowSize {
		t.Fatalf("capture of %d bytes does not straddle the %d-byte window", len(data), windowSize)
	}
	ref, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := drain(ref)
	if err != io.EOF {
		t.Fatalf("reference read ended in %v", err)
	}
	sources := map[string]func([]byte) io.Reader{
		"one-byte": func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) },
		"half":     func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) },
		"data-err": func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) },
		"stalls":   func(b []byte) io.Reader { return &stallReader{r: iotest.HalfReader(bytes.NewReader(b)), stalls: 3} },
	}
	for name, src := range sources {
		for _, rd := range bothReaders {
			t.Run(name+"/"+rd.name, func(t *testing.T) {
				d, err := rd.open(src(data))
				if err != nil {
					t.Fatal(err)
				}
				got, err := drain(d)
				if err != io.EOF {
					t.Fatalf("ended in %v, want io.EOF", err)
				}
				if len(got) != len(want) {
					t.Fatalf("%d packets, want %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("packet %d: %+v, want %+v", i, got[i], want[i])
					}
				}
				if d.Stats() != ref.Stats() {
					t.Fatalf("stats %+v, want %+v", d.Stats(), ref.Stats())
				}
			})
		}
	}
}

// TestReaderCutAndFailingSources pins the terminal outcomes: a capture cut
// inside a record header or body is an error, never io.EOF, and a source
// failing mid-record surfaces its own error. Both readers must agree.
func TestReaderCutAndFailingSources(t *testing.T) {
	data := mixedCapture(binary.BigEndian, true, 2)
	first := globalHdrLen + recHdrLen + len(mixedFrames(0)[0]) // end of record 1
	errBoom := errors.New("boom")
	cases := []struct {
		name  string
		src   func() io.Reader
		isErr error // the terminal error must wrap this
	}{
		{"cut-in-header", func() io.Reader { return bytes.NewReader(data[:first+5]) }, io.ErrUnexpectedEOF},
		{"cut-in-body", func() io.Reader { return bytes.NewReader(data[:first+recHdrLen+7]) }, io.ErrUnexpectedEOF},
		{"cut-after-header", func() io.Reader { return bytes.NewReader(data[:first+recHdrLen]) }, io.EOF},
		{"fail-in-header", func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:first+3]), iotest.ErrReader(errBoom))
		}, errBoom},
		{"fail-in-body", func() io.Reader {
			return io.MultiReader(iotest.HalfReader(bytes.NewReader(data[:first+recHdrLen+20])), iotest.ErrReader(errBoom))
		}, errBoom},
		{"fail-at-boundary", func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:first]), iotest.ErrReader(errBoom))
		}, errBoom},
	}
	for _, tc := range cases {
		var outcomes []error
		for _, rd := range bothReaders {
			d, err := rd.open(tc.src())
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, rd.name, err)
			}
			pkts, err := drain(d)
			if len(pkts) != 1 {
				t.Fatalf("%s/%s: %d packets before the cut, want 1", tc.name, rd.name, len(pkts))
			}
			if err == io.EOF || !errors.Is(err, tc.isErr) {
				t.Fatalf("%s/%s: ended in %v, want an error wrapping %v", tc.name, rd.name, err, tc.isErr)
			}
			outcomes = append(outcomes, err)
		}
		sameOutcome(t, tc.name, outcomes[0], outcomes[1])
	}
}

// TestReaderRecordLargerThanWindow reads a record of the largest plausible
// captured length, which forces the window to grow, between two ordinary
// ones; one byte more is rejected as implausible.
func TestReaderRecordLargerThanWindow(t *testing.T) {
	small := mixedFrames(0)[0]
	huge := ethFrame(0x0800, false, ipv4Packet(17, 0, 0, 7, 8, ports(9, 10)))
	huge = append(huge, make([]byte, maxCapLen-len(huge))...)
	data := buildCapture(binary.LittleEndian, false, LinkEthernet, small, huge, small)
	for _, rd := range bothReaders {
		d, err := rd.open(iotest.HalfReader(bytes.NewReader(data)))
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := drain(d)
		if err != io.EOF || len(pkts) != 3 {
			t.Fatalf("%s: %d packets ending in %v, want 3 and io.EOF", rd.name, len(pkts), err)
		}
		// buildCapture claims an original length of len(frame) + i%3.
		if pkts[1].Tuple.SrcPort != 9 || pkts[1].Length != maxCapLen+1 {
			t.Fatalf("%s: large record decoded as %+v", rd.name, pkts[1])
		}
	}

	over := buildCapture(binary.LittleEndian, false, LinkEthernet, append(huge, 0))
	for _, rd := range bothReaders {
		d, err := rd.open(bytes.NewReader(over))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := drain(d); err == io.EOF || err == nil {
			t.Fatalf("%s: a %d-byte record was accepted", rd.name, maxCapLen+1)
		}
	}
}

// mixedCaptures are the captures TestReadBlockMatchesNext reads: every
// skip class, both byte orders, both timestamp resolutions, both link
// types.
func mixedCaptures(t testing.TB) map[string][]byte {
	t.Helper()
	return map[string][]byte{
		"sample":        writeSample(t),
		"mixed-le-usec": mixedCapture(binary.LittleEndian, false, 60),
		"mixed-be-nsec": mixedCapture(binary.BigEndian, true, 60),
		"raw":           rawCapture(),
	}
}

package pcap

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"testing"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

func sampleTuples() []hashing.FiveTuple {
	return []hashing.FiveTuple{
		{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6},
		{SrcIP: 0xc0a80101, DstIP: 0x08080808, SrcPort: 5353, DstPort: 53, Proto: 17},
		{SrcIP: 0x0a000003, DstIP: 0x0a000001, Proto: 1},
	}
}

// writeSample builds a 3-packet capture; writes to a bytes.Buffer cannot
// fail, so errors are ignored.
func writeSample(testing.TB) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i, tu := range sampleTuples() {
		_ = w.WritePacket(tu, uint64(i)*1e6, 100+i)
	}
	_ = w.Flush()
	return buf.Bytes()
}

func TestWriteReadRoundTrip(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType() != LinkEthernet {
		t.Fatalf("link type = %d", r.LinkType())
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := sampleTuples()
	if len(pkts) != len(want) {
		t.Fatalf("parsed %d packets, want %d", len(pkts), len(want))
	}
	for i, p := range pkts {
		if p.Tuple != want[i] {
			t.Errorf("packet %d tuple = %+v, want %+v", i, p.Tuple, want[i])
		}
		if p.TimestampNs/1e6 != uint64(i) {
			t.Errorf("packet %d timestamp = %d", i, p.TimestampNs)
		}
	}
	st := r.Stats()
	if st.Records != 3 || st.Parsed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("Next on empty capture = %v, want io.EOF", err)
	}
}

func TestBadMagic(t *testing.T) {
	junk := make([]byte, 24)
	if _, err := NewReader(bytes.NewReader(junk)); err != ErrNotPcap {
		t.Fatalf("err = %v, want ErrNotPcap", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestBigEndianAndNanos(t *testing.T) {
	// Hand-build a big-endian nanosecond capture with one raw-IP packet.
	var buf bytes.Buffer
	be := binary.BigEndian
	hdr := make([]byte, 24)
	be.PutUint32(hdr[0:4], magicNsecLE)
	be.PutUint32(hdr[20:24], LinkRaw)
	buf.Write(hdr)

	ip := make([]byte, 24)
	ip[0] = 0x45
	ip[9] = 6
	be.PutUint32(ip[12:16], 0x01020304)
	be.PutUint32(ip[16:20], 0x05060708)
	be.PutUint16(ip[20:22], 1000)
	be.PutUint16(ip[22:24], 2000)

	rec := make([]byte, 16)
	be.PutUint32(rec[0:4], 1)   // sec
	be.PutUint32(rec[4:8], 500) // nanos
	be.PutUint32(rec[8:12], uint32(len(ip)))
	be.PutUint32(rec[12:16], uint32(len(ip)))
	buf.Write(rec)
	buf.Write(ip)

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := hashing.FiveTuple{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 1000, DstPort: 2000, Proto: 6}
	if p.Tuple != want {
		t.Fatalf("tuple = %+v, want %+v", p.Tuple, want)
	}
	if p.TimestampNs != 1e9+500 {
		t.Fatalf("timestamp = %d, want 1000000500", p.TimestampNs)
	}
}

func TestVLANTag(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 24)
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint32(hdr[20:24], LinkEthernet)
	buf.Write(hdr)

	// Ethernet + 802.1Q + IPv4 + TCP ports.
	frame := make([]byte, 14+4+20+4)
	binary.BigEndian.PutUint16(frame[12:14], 0x8100)
	binary.BigEndian.PutUint16(frame[16:18], 0x0800)
	ip := frame[18:]
	ip[0] = 0x45
	ip[9] = 17
	binary.BigEndian.PutUint32(ip[12:16], 0xAABBCCDD)
	binary.BigEndian.PutUint32(ip[16:20], 0x11223344)
	binary.BigEndian.PutUint16(ip[20:22], 7)
	binary.BigEndian.PutUint16(ip[22:24], 9)

	rec := make([]byte, 16)
	le.PutUint32(rec[8:12], uint32(len(frame)))
	le.PutUint32(rec[12:16], uint32(len(frame)))
	buf.Write(rec)
	buf.Write(frame)

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Tuple.Proto != 17 || p.Tuple.SrcPort != 7 || p.Tuple.DstPort != 9 {
		t.Fatalf("VLAN-tagged tuple = %+v", p.Tuple)
	}
}

func TestSkipsNonIPv4AndFragments(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 24)
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint32(hdr[20:24], LinkEthernet)
	buf.Write(hdr)

	writeRec := func(frame []byte) {
		rec := make([]byte, 16)
		le.PutUint32(rec[8:12], uint32(len(frame)))
		le.PutUint32(rec[12:16], uint32(len(frame)))
		buf.Write(rec)
		buf.Write(frame)
	}

	// ARP frame (non-IP).
	arp := make([]byte, 42)
	binary.BigEndian.PutUint16(arp[12:14], 0x0806)
	writeRec(arp)

	// IPv4 fragment (offset != 0).
	frag := make([]byte, 14+20)
	binary.BigEndian.PutUint16(frag[12:14], 0x0800)
	frag[14] = 0x45
	frag[14+9] = 6
	binary.BigEndian.PutUint16(frag[14+6:14+8], 0x00FF) // offset 255
	writeRec(frag)

	// Unsupported transport (GRE, proto 47).
	gre := make([]byte, 14+20+4)
	binary.BigEndian.PutUint16(gre[12:14], 0x0800)
	gre[14] = 0x45
	gre[14+9] = 47
	writeRec(gre)

	// Truncated IPv4 (header cut).
	trunc := make([]byte, 14+10)
	binary.BigEndian.PutUint16(trunc[12:14], 0x0800)
	trunc[14] = 0x45
	writeRec(trunc)

	// One good packet at the end.
	good := make([]byte, 14+20+4)
	binary.BigEndian.PutUint16(good[12:14], 0x0800)
	good[14] = 0x45
	good[14+9] = 6
	writeRec(good)

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 {
		t.Fatalf("parsed %d packets, want 1", len(pkts))
	}
	st := r.Stats()
	if st.SkippedNonIP != 1 || st.SkippedFragments != 1 ||
		st.SkippedTransport != 1 || st.SkippedTruncated != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUnsupportedLinkType(t *testing.T) {
	hdr := make([]byte, 24)
	binary.LittleEndian.PutUint32(hdr[0:4], magicUsecLE)
	binary.LittleEndian.PutUint32(hdr[20:24], 999)
	if _, err := NewReader(bytes.NewReader(hdr)); err == nil {
		t.Fatal("unsupported link type accepted")
	}
}

func TestImplausibleRecordLength(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 24)
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint32(hdr[20:24], LinkEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	le.PutUint32(rec[8:12], 1<<24)
	buf.Write(rec)
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("implausible length accepted")
	}
}

func TestTruncatedRecordBody(t *testing.T) {
	data := writeSample(t)
	r, err := NewReader(bytes.NewReader(data[:len(data)-5]))
	if err != nil {
		t.Fatal(err)
	}
	var last error
	for {
		_, err := r.Next()
		if err != nil {
			last = err
			break
		}
	}
	if last == io.EOF {
		t.Fatal("truncated body reported clean EOF")
	}
}

func TestIPOptionsParsed(t *testing.T) {
	var buf bytes.Buffer
	le := binary.LittleEndian
	hdr := make([]byte, 24)
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint32(hdr[20:24], LinkRaw)
	buf.Write(hdr)

	// IPv4 with ihl=6 (4 bytes of options) + TCP ports.
	ip := make([]byte, 24+4)
	ip[0] = 0x46
	ip[9] = 6
	binary.BigEndian.PutUint16(ip[24:26], 80)
	binary.BigEndian.PutUint16(ip[26:28], 443)
	rec := make([]byte, 16)
	le.PutUint32(rec[8:12], uint32(len(ip)))
	le.PutUint32(rec[12:16], uint32(len(ip)))
	buf.Write(rec)
	buf.Write(ip)

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Tuple.SrcPort != 80 || p.Tuple.DstPort != 443 {
		t.Fatalf("tuple with IP options = %+v", p.Tuple)
	}
}

func TestChecksumValid(t *testing.T) {
	// The writer's IP checksum must verify: summing the full header
	// (including the checksum) yields 0xffff.
	data := writeSample(t)
	ip := data[24+16+14 : 24+16+14+20]
	var sum uint32
	for i := 0; i+1 < len(ip); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(ip[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Fatalf("IP checksum does not verify: %#x", sum)
	}
}

func FuzzReader(f *testing.F) {
	f.Add(writeSample(nil))
	f.Add([]byte("not a pcap at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Must terminate and never panic, whatever the bytes are.
		for i := 0; i < 1000; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

func BenchmarkReader(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 1000; i++ {
		tu := hashing.FiveTuple{SrcIP: uint32(i), DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
		if err := w.WritePacket(tu, uint64(i), 100); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadBlockMatchesNext pins the block path against the one-at-a-time
// path on captures holding every skip class in both byte orders, at block
// sizes that divide the packet count unevenly and that exceed it.
func TestReadBlockMatchesNext(t *testing.T) {
	for name, data := range mixedCaptures(t) {
		one, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		want, err := one.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int{1, 7, 256} {
			blk, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]Packet, size)
			var got []Packet
			for {
				n, err := blk.ReadBlock(dst)
				got = append(got, dst[:n]...)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if n != size {
					t.Fatalf("%s/%d: short block of %d with a nil error", name, size, n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("%s/%d: block path yielded %d packets, want %d", name, size, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s/%d: packet %d: block %+v, next %+v", name, size, i, got[i], want[i])
				}
			}
			if blk.Stats() != one.Stats() {
				t.Fatalf("%s/%d: stats: block %+v, next %+v", name, size, blk.Stats(), one.Stats())
			}
		}
	}
}

// replayCapture is n writer-synthesized packets cycling through TCP, UDP
// and ICMP, the shape of a replayed trace export.
func replayCapture(tb testing.TB, n int) []byte {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tuples := sampleTuples()
	for i := range n {
		tu := tuples[i%len(tuples)]
		tu.SrcIP += uint32(i)
		if err := w.WritePacket(tu, uint64(i)*1000, 64+i%1400); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// replayBlock is the block size of the replay loops (examples/pcapingest,
// the end-to-end benchmark).
const replayBlock = 256

// TestReadBlockZeroAllocs gates the block decode path at zero allocations
// per block once the reader's window is warm.
func TestReadBlockZeroAllocs(t *testing.T) {
	const runs = 50
	r, err := NewReader(bytes.NewReader(replayCapture(t, (runs+2)*replayBlock)))
	if err != nil {
		t.Fatal(err)
	}
	var pkts [replayBlock]Packet
	tuples := make([]hashing.FiveTuple, 0, replayBlock)
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := r.ReadBlock(pkts[:]); err != nil {
			t.Fatal(err)
		}
		tuples = AppendTuples(tuples[:0], pkts[:])
	})
	if allocs != 0 {
		t.Fatalf("ReadBlock allocates %.1f per %d-packet block, want 0", allocs, replayBlock)
	}
}

// BenchmarkReadBlock is the decode half of a fused replay:
// ReadBlock + AppendTuples over 256-packet blocks, reported per packet.
func BenchmarkReadBlock(b *testing.B) {
	data := replayCapture(b, 1<<16)
	var pkts [replayBlock]Packet
	tuples := make([]hashing.FiveTuple, 0, replayBlock)
	var r *Reader
	packets := 0
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if r == nil {
			var err error
			if r, err = NewReader(bytes.NewReader(data)); err != nil {
				b.Fatal(err)
			}
		}
		n, err := r.ReadBlock(pkts[:])
		if err == io.EOF {
			r = nil
		} else if err != nil {
			b.Fatal(err)
		}
		tuples = AppendTuples(tuples[:0], pkts[:n])
		packets += len(tuples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/pkt")
}

// TestNextPacketZeroAllocs gates the replay decode path at zero allocations
// per record once the reusable buffer is warm.
func TestNextPacketZeroAllocs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tu := sampleTuples()[0]
	for i := 0; i < 4096; i++ {
		_ = w.WritePacket(tu, uint64(i), 100)
	}
	_ = w.Flush()
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := r.NextPacket(&p); err != nil { // warm the record buffer
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := r.NextPacket(&p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextPacket allocates %.1f per record, want 0", allocs)
	}
}

// TestWriterZeroAllocs gates the synthesizing writer at zero allocations
// per packet: trace export and benchmark input generation write millions.
func TestWriterZeroAllocs(t *testing.T) {
	w := NewWriter(io.Discard)
	tuples := sampleTuples()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if err := w.WritePacket(tuples[i%len(tuples)], uint64(i), 100); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("WritePacket allocates %.1f per packet, want 0", allocs)
	}
}

// TestWriterBytesUnchanged pins the writer's exact output: TCP, ICMP after
// TCP (so a reused frame must not leak ports), UDP and an unknown transport,
// with clamped and oversized lengths. The digest is of the output of the
// writer that built a fresh frame per packet.
func TestWriterBytesUnchanged(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tuples := []hashing.FiveTuple{
		{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 1234, DstPort: 80, Proto: 6},
		{SrcIP: 0x0a000003, DstIP: 0x0a000001, SrcPort: 7, DstPort: 9, Proto: 1},
		{SrcIP: 0xc0a80101, DstIP: 0x08080808, SrcPort: 5353, DstPort: 53, Proto: 17},
		{SrcIP: 0xffffffff, DstIP: 0, SrcPort: 65535, DstPort: 1, Proto: 47},
	}
	lengths := []int{1500, 10, 70000, 64}
	for i, tu := range tuples {
		if err := w.WritePacket(tu, uint64(i)*1_234_567_891+999, lengths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	const want = "3f53138386023986b0747b05700048d9721d17932ba083ba41e769c7ed914bce"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 240 || got != want {
		t.Fatalf("writer output changed: %d bytes, sha256 %s, want 240 bytes, %s", buf.Len(), got, want)
	}
}

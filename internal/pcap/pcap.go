// Package pcap reads and writes libpcap capture files and parses packet
// headers down to the 5-tuple — the front half of the paper's pipeline
// ("After capturing each packet, we extract the information of the 5-tuple
// packet header", Section 6.1).
//
// Supported on the read path: both byte orders, microsecond and nanosecond
// timestamp variants, Ethernet (with one level of 802.1Q VLAN tagging) and
// raw-IP link types, IPv4 with options, and TCP/UDP/ICMP transports.
// Non-IPv4 frames and non-first IP fragments are counted and skipped, as a
// measurement point would. The write path emits standard microsecond
// little-endian captures, so synthetic traces can be exported for other
// tools.
package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

// Magic numbers of the classic pcap format.
const (
	magicUsecLE = 0xa1b2c3d4
	magicNsecLE = 0xa1b23c4d
)

// Link types we can parse.
const (
	// LinkEthernet is DLT_EN10MB.
	LinkEthernet = 1
	// LinkRaw is DLT_RAW: packets start at the IP header.
	LinkRaw = 101
)

// ErrNotPcap reports a stream that does not begin with a pcap magic number.
var ErrNotPcap = errors.New("pcap: bad magic, not a pcap file")

// Packet is one parsed capture record.
type Packet struct {
	// Tuple is the flow key parsed from the headers.
	Tuple hashing.FiveTuple
	// TimestampNs is the capture timestamp in nanoseconds since the epoch.
	TimestampNs uint64
	// Length is the original (untruncated) packet length in bytes.
	Length int
}

// Stats counts what the reader saw.
type Stats struct {
	// Records is the total number of capture records.
	Records int
	// Parsed is how many yielded a 5-tuple.
	Parsed int
	// SkippedNonIP counts non-IPv4 frames (ARP, IPv6, ...).
	SkippedNonIP int
	// SkippedFragments counts non-first IP fragments (no L4 header).
	SkippedFragments int
	// SkippedTruncated counts records whose snaplen cut the headers off.
	SkippedTruncated int
	// SkippedTransport counts IPv4 packets with unsupported protocols.
	SkippedTransport int
}

// Sizes of the read path.
const (
	globalHdrLen = 24
	recHdrLen    = 16
	// windowSize is the reader's window, and so the size of each read from
	// the source. Windows of 16 to 128 KiB decoded a replay equally fast.
	windowSize = 64 << 10
	// maxCapLen bounds a record's captured length; a larger one is a corrupt
	// header, not a packet.
	maxCapLen = 1 << 20
)

// Reader decodes a pcap stream record by record. It reads the source
// straight into one window it owns and decodes each record where it lies,
// so every capture byte is copied once: the window is compacted only when a
// record straddles its end, and grows only for a record larger than itself.
type Reader struct {
	src io.Reader
	// win[off:end] holds the bytes read from src and not yet decoded.
	win      []byte
	off, end int
	// srcErr is the error src returned (io.EOF at the end of the stream).
	// Once it is set the source is not read again.
	srcErr error
	// swapped marks a capture written in the other byte order: header
	// fields are read little-endian and then byte-reversed.
	swapped bool
	// fracNs converts a timestamp fraction to nanoseconds: 1e3 for
	// microsecond captures, 1 for nanosecond ones.
	fracNs   uint64
	linkType uint32
	stats    Stats
	// stop and stopLen say why next last returned false; stopErr turns
	// them into the caller's error.
	stop    stopReason
	stopLen uint32
}

type stopReason uint8

const (
	stopEOF    stopReason = iota // clean end of capture at a record boundary
	stopHeader                   // source ended or failed inside a record header
	stopLength                   // record header claims more than maxCapLen bytes
	stopBody                     // source ended or failed inside a record body
)

// NewReader parses the global header and returns a reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	pr := &Reader{src: r, win: make([]byte, windowSize)}
	if !pr.fill(globalHdrLen) {
		return nil, fmt.Errorf("pcap: reading global header: %w", pr.shortErr())
	}
	hdr := pr.win[:globalHdrLen]
	pr.off = globalHdrLen
	magic := binary.LittleEndian.Uint32(hdr[0:4])
	if magic == bits.ReverseBytes32(magicUsecLE) || magic == bits.ReverseBytes32(magicNsecLE) {
		pr.swapped, magic = true, bits.ReverseBytes32(magic)
	}
	switch magic {
	case magicUsecLE:
		pr.fracNs = 1e3
	case magicNsecLE:
		pr.fracNs = 1
	default:
		return nil, ErrNotPcap
	}
	pr.linkType = binary.LittleEndian.Uint32(hdr[20:24])
	if pr.swapped {
		pr.linkType = bits.ReverseBytes32(pr.linkType)
	}
	if pr.linkType != LinkEthernet && pr.linkType != LinkRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d", pr.linkType)
	}
	return pr, nil
}

// LinkType returns the capture's link type.
func (pr *Reader) LinkType() uint32 { return pr.linkType }

// Stats returns the running skip/parse counters.
func (pr *Reader) Stats() Stats { return pr.stats }

// Next returns the next parseable packet. Records that cannot yield a
// 5-tuple are skipped (and counted); io.EOF signals a clean end of capture.
func (pr *Reader) Next() (Packet, error) {
	var p Packet
	if err := pr.NextPacket(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextPacket decodes the next parseable packet into *p straight from the
// reader's window: once the window is warm the replay loop performs no
// allocation per packet, which is what the line-rate ingest benchmarks (and
// any production replay) want. Records that cannot yield a 5-tuple are
// skipped and counted; io.EOF signals a clean end of capture.
func (pr *Reader) NextPacket(p *Packet) error {
	if pr.next(p) {
		return nil
	}
	return pr.stopErr()
}

// ReadBlock decodes up to len(dst) packets into dst and returns how many it
// filled. A short count with a nil error never occurs: the only short return
// is the final one, paired with io.EOF (possibly n > 0), or a real decode
// error. Allocation-free in the steady state, like NextPacket.
func (pr *Reader) ReadBlock(dst []Packet) (int, error) {
	for n := range dst {
		if !pr.next(&dst[n]) {
			return n, pr.stopErr()
		}
	}
	return len(dst), nil
}

// next is the record decoder behind NextPacket and ReadBlock. It decodes
// the next parseable record into *p, skipping and counting the records that
// yield no 5-tuple, and reports false when decoding stops; pr.stop says
// why.
//
//caesar:hotpath the per-packet decode of a capture replay
func (pr *Reader) next(p *Packet) bool {
	for {
		if pr.end-pr.off < recHdrLen && !pr.fill(recHdrLen) {
			pr.stop = stopHeader
			if pr.off == pr.end && pr.srcErr == io.EOF {
				pr.stop = stopEOF
			}
			return false
		}
		h := (*[recHdrLen]byte)(pr.win[pr.off:])
		sec := binary.LittleEndian.Uint32(h[0:4])
		frac := binary.LittleEndian.Uint32(h[4:8])
		capLen := binary.LittleEndian.Uint32(h[8:12])
		origLen := binary.LittleEndian.Uint32(h[12:16])
		if pr.swapped {
			sec, frac = bits.ReverseBytes32(sec), bits.ReverseBytes32(frac)
			capLen, origLen = bits.ReverseBytes32(capLen), bits.ReverseBytes32(origLen)
		}
		pr.off += recHdrLen
		if capLen > maxCapLen {
			pr.stop, pr.stopLen = stopLength, capLen
			return false
		}
		n := int(capLen)
		if pr.end-pr.off < n && !pr.fill(n) {
			pr.stop, pr.stopLen = stopBody, capLen
			return false
		}
		data := pr.win[pr.off : pr.off+n]
		pr.off += n
		pr.stats.Records++
		if skipped := pr.parse(data, &p.Tuple); skipped != nil {
			*skipped++
			continue
		}
		pr.stats.Parsed++
		p.TimestampNs = uint64(sec)*1e9 + uint64(frac)*pr.fracNs
		p.Length = int(origLen)
		return true
	}
}

// fill makes at least need bytes available at win[off:], compacting the
// window when they would run past its end and growing it when need exceeds
// it. It returns false when the source ends or fails first; the cause stays
// in srcErr.
func (pr *Reader) fill(need int) bool {
	if pr.off+need > len(pr.win) {
		win := pr.win
		if need > len(win) {
			//caesar:ignore allocfree only a record larger than the window grows it (to at most maxCapLen, once per new maximum); every other record is decoded in place
			win = make([]byte, need)
		}
		pr.end = copy(win, pr.win[pr.off:pr.end])
		pr.win, pr.off = win, 0
	}
	for pr.end-pr.off < need {
		if pr.srcErr != nil {
			return false
		}
		n, err := pr.src.Read(pr.win[pr.end:])
		pr.end += n
		pr.srcErr = err
	}
	return true
}

// stopErr builds the error for the reason next stopped. It stays out of
// next so that the per-record path never formats an error.
func (pr *Reader) stopErr() error {
	switch pr.stop {
	case stopEOF:
		return io.EOF
	case stopHeader:
		return fmt.Errorf("pcap: reading record header: %w", pr.shortErr())
	case stopLength:
		return fmt.Errorf("pcap: implausible captured length %d", pr.stopLen)
	default:
		return fmt.Errorf("pcap: reading %d-byte record: %w", pr.stopLen, pr.shortErr())
	}
}

// shortErr is the error io.ReadFull reports for a field the source cut
// short after the end-off bytes buffered so far.
func (pr *Reader) shortErr() error {
	if pr.srcErr == io.EOF && pr.end > pr.off {
		return io.ErrUnexpectedEOF
	}
	return pr.srcErr
}

// AppendTuples appends the 5-tuples of pkts[:n] to dst and returns it —
// the glue between ReadBlock and the fused tuple-block ingest paths
// (FlowIDer.IDBlock, Ingester.ObservePackets): the replay loop keeps one
// []Packet and one []FiveTuple and reuses both every block, so the
// extraction is allocation-free in the steady state.
//
//caesar:hotpath the per-block tuple extraction of a fused capture replay
func AppendTuples(dst []hashing.FiveTuple, pkts []Packet) []hashing.FiveTuple {
	//caesar:ignore allocfree grows only until dst reaches the replay's block size, then every block reuses it
	dst = slices.Grow(dst, len(pkts))
	for i := range pkts {
		//caesar:ignore allocfree dst was pre-grown to len(pkts) just above; the append writes into reserved capacity
		dst = append(dst, pkts[i].Tuple)
	}
	return dst
}

// ReadAll drains the capture into a slice.
func (pr *Reader) ReadAll() ([]Packet, error) {
	var pkts []Packet
	for {
		p, err := pr.Next()
		if err == io.EOF {
			return pkts, nil
		}
		if err != nil {
			return pkts, err
		}
		pkts = append(pkts, p)
	}
}

// parse walks link → network → transport headers of one record. On success
// it writes the 5-tuple into *t and returns nil; otherwise it leaves *t
// alone and returns the Stats counter the record is skipped under.
func (pr *Reader) parse(data []byte, t *hashing.FiveTuple) *int {
	if pr.linkType == LinkEthernet {
		if len(data) < 14 {
			return &pr.stats.SkippedTruncated
		}
		etherType := binary.BigEndian.Uint16(data[12:14])
		data = data[14:]
		if etherType == 0x8100 { // 802.1Q VLAN tag
			if len(data) < 4 {
				return &pr.stats.SkippedTruncated
			}
			etherType = binary.BigEndian.Uint16(data[2:4])
			data = data[4:]
		}
		if etherType != 0x0800 { // not IPv4
			return &pr.stats.SkippedNonIP
		}
	}
	if len(data) < 20 {
		return &pr.stats.SkippedTruncated
	}
	if data[0]>>4 != 4 {
		return &pr.stats.SkippedNonIP
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		return &pr.stats.SkippedTruncated
	}
	if binary.BigEndian.Uint16(data[6:8])&0x1fff != 0 { // nonzero fragment offset: no L4 header
		return &pr.stats.SkippedFragments
	}
	var srcPort, dstPort uint16
	switch data[9] {
	case 6, 17: // TCP, UDP: ports in the first 4 bytes
		l4 := data[ihl:]
		if len(l4) < 4 {
			return &pr.stats.SkippedTruncated
		}
		srcPort = binary.BigEndian.Uint16(l4[0:2])
		dstPort = binary.BigEndian.Uint16(l4[2:4])
	case 1: // ICMP: no ports; type/code distinguish "flows" poorly, use 0
	default:
		return &pr.stats.SkippedTransport
	}
	// Field by field: a composite literal is built in a stack temporary and
	// copied with one wide load, which stalls on store forwarding.
	t.SrcIP = binary.BigEndian.Uint32(data[12:16])
	t.DstIP = binary.BigEndian.Uint32(data[16:20])
	t.SrcPort, t.DstPort = srcPort, dstPort
	t.Proto = data[9]
	return nil
}

// Writer emits a classic little-endian microsecond pcap with Ethernet
// framing and minimal synthesized headers — enough for any pcap tool to
// read the 5-tuples back.
type Writer struct {
	w       *bufio.Writer
	started bool
	// rec and frame are the record header and frame scratch; local arrays
	// would escape through the bufio.Writer.Write calls and cost two heap
	// allocations per packet.
	rec   [recHdrLen]byte
	frame [frameLen]byte
}

// frameLen is the synthesized frame: Ethernet(14) + IPv4(20) + L4 stub(4).
const frameLen = 14 + 20 + 4

// NewWriter wraps w; the global header is written on the first packet (or
// Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (pw *Writer) writeGlobalHeader() error {
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], magicUsecLE)
	le.PutUint16(hdr[4:6], 2)       // version major
	le.PutUint16(hdr[6:8], 4)       // version minor
	le.PutUint32(hdr[16:20], 1<<16) // snaplen
	le.PutUint32(hdr[20:24], LinkEthernet)
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one synthesized packet: Ethernet + IPv4 + 4 bytes of
// L4 ports (TCP/UDP) or ICMP header. length is the claimed original packet
// size (clamped to at least the synthesized headers).
func (pw *Writer) WritePacket(t hashing.FiveTuple, timestampNs uint64, length int) error {
	if !pw.started {
		if err := pw.writeGlobalHeader(); err != nil {
			return err
		}
		pw.started = true
	}
	pw.frame = [frameLen]byte{}
	frame := pw.frame[:]
	be := binary.BigEndian
	frame[12], frame[13] = 0x08, 0x00 // IPv4 ethertype
	ip := frame[14:]
	ip[0] = 0x45 // v4, ihl=5
	be.PutUint16(ip[2:4], uint16(20+4))
	ip[8] = 64 // TTL
	ip[9] = t.Proto
	be.PutUint32(ip[12:16], t.SrcIP)
	be.PutUint32(ip[16:20], t.DstIP)
	be.PutUint16(ip[10:12], ipChecksum(ip[:20]))
	l4 := ip[20:]
	switch t.Proto {
	case 6, 17:
		be.PutUint16(l4[0:2], t.SrcPort)
		be.PutUint16(l4[2:4], t.DstPort)
	default:
		// ICMP echo request stub.
		l4[0] = 8
	}

	if length < len(frame) {
		length = len(frame)
	}
	rec := pw.rec[:]
	le := binary.LittleEndian
	le.PutUint32(rec[0:4], uint32(timestampNs/1e9))
	le.PutUint32(rec[4:8], uint32(timestampNs%1e9/1e3))
	le.PutUint32(rec[8:12], uint32(len(frame)))
	le.PutUint32(rec[12:16], uint32(length))
	if _, err := pw.w.Write(rec); err != nil {
		return err
	}
	_, err := pw.w.Write(frame)
	return err
}

// Flush writes any buffered data (and the global header if no packets were
// written).
func (pw *Writer) Flush() error {
	if !pw.started {
		if err := pw.writeGlobalHeader(); err != nil {
			return err
		}
		pw.started = true
	}
	return pw.w.Flush()
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i : i+2]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

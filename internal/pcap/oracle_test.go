package pcap

// The reference reader for the differential tests: the bufio + io.ReadFull
// + parse decoder that the one-copy window replaced, kept as it was except
// for its names (Reader → oracleReader) and its hot-path annotation and
// allocfree waivers, which apply only to production code. FuzzReaderDifferential
// and the edge-case tests require the production Reader to yield the same
// packets, Stats and outcome as this one on every input.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"github.com/caesar-sketch/caesar/internal/hashing"
)

// oracleReader decodes a pcap stream record by record.
type oracleReader struct {
	r        *bufio.Reader
	order    binary.ByteOrder
	nanos    bool
	linkType uint32
	stats    Stats
	// buf is the reused record buffer behind NextPacket/ReadBlock: parse
	// never retains record bytes past the call, so one capture-sized buffer
	// serves the whole replay and the steady state allocates nothing.
	buf []byte
	// hdr is the record-header scratch. A local array would escape through
	// the io.ReadFull interface call and cost one heap allocation per record.
	hdr [16]byte
}

// newOracleReader parses the global header and returns a reader positioned at the
// first record.
func newOracleReader(r io.Reader) (*oracleReader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading global header: %w", err)
	}
	magicLE := binary.LittleEndian.Uint32(hdr[0:4])
	magicBE := binary.BigEndian.Uint32(hdr[0:4])
	pr := &oracleReader{r: br}
	switch {
	case magicLE == magicUsecLE:
		pr.order = binary.LittleEndian
	case magicLE == magicNsecLE:
		pr.order, pr.nanos = binary.LittleEndian, true
	case magicBE == magicUsecLE:
		pr.order = binary.BigEndian
	case magicBE == magicNsecLE:
		pr.order, pr.nanos = binary.BigEndian, true
	default:
		return nil, ErrNotPcap
	}
	pr.linkType = pr.order.Uint32(hdr[20:24])
	if pr.linkType != LinkEthernet && pr.linkType != LinkRaw {
		return nil, fmt.Errorf("pcap: unsupported link type %d", pr.linkType)
	}
	return pr, nil
}

// LinkType returns the capture's link type.
func (pr *oracleReader) LinkType() uint32 { return pr.linkType }

// Stats returns the running skip/parse counters.
func (pr *oracleReader) Stats() Stats { return pr.stats }

// Next returns the next parseable packet. Records that cannot yield a
// 5-tuple are skipped (and counted); io.EOF signals a clean end of capture.
func (pr *oracleReader) Next() (Packet, error) {
	var p Packet
	if err := pr.NextPacket(&p); err != nil {
		return Packet{}, err
	}
	return p, nil
}

// NextPacket decodes the next parseable packet into *p, reusing the reader's
// internal record buffer: after the first few records the replay loop
// performs no allocation per packet, which is what the line-rate ingest
// benchmarks (and any production replay) want. Records that cannot yield a
// 5-tuple are skipped and counted; io.EOF signals a clean end of capture.
func (pr *oracleReader) NextPacket(p *Packet) error {
	for {
		rec := pr.hdr[:]
		if _, err := io.ReadFull(pr.r, rec); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("pcap: reading record header: %w", err)
		}
		sec := pr.order.Uint32(rec[0:4])
		frac := pr.order.Uint32(rec[4:8])
		capLen := pr.order.Uint32(rec[8:12])
		origLen := pr.order.Uint32(rec[12:16])
		const maxSane = 1 << 20
		if capLen > maxSane {
			return fmt.Errorf("pcap: implausible captured length %d", capLen)
		}
		if uint32(cap(pr.buf)) < capLen {
			pr.buf = make([]byte, capLen)
		}
		data := pr.buf[:capLen]
		if _, err := io.ReadFull(pr.r, data); err != nil {
			return fmt.Errorf("pcap: reading %d-byte record: %w", capLen, err)
		}
		pr.stats.Records++

		ts := uint64(sec) * 1e9
		if pr.nanos {
			ts += uint64(frac)
		} else {
			ts += uint64(frac) * 1e3
		}

		tuple, ok := pr.parse(data)
		if !ok {
			continue
		}
		pr.stats.Parsed++
		p.Tuple, p.TimestampNs, p.Length = tuple, ts, int(origLen)
		return nil
	}
}

// ReadBlock decodes up to len(dst) packets into dst and returns how many it
// filled. A short count with a nil error never occurs: the only short return
// is the final one, paired with io.EOF (possibly n > 0), or a real decode
// error. Allocation-free in the steady state, like NextPacket.
func (pr *oracleReader) ReadBlock(dst []Packet) (int, error) {
	for n := range dst {
		if err := pr.NextPacket(&dst[n]); err != nil {
			return n, err
		}
	}
	return len(dst), nil
}

// ReadAll drains the capture into a slice.
func (pr *oracleReader) ReadAll() ([]Packet, error) {
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

// parse walks link → network → transport headers.
func (pr *oracleReader) parse(data []byte) (hashing.FiveTuple, bool) {
	if pr.linkType == LinkEthernet {
		if len(data) < 14 {
			pr.stats.SkippedTruncated++
			return hashing.FiveTuple{}, false
		}
		etherType := binary.BigEndian.Uint16(data[12:14])
		data = data[14:]
		if etherType == 0x8100 { // 802.1Q VLAN tag
			if len(data) < 4 {
				pr.stats.SkippedTruncated++
				return hashing.FiveTuple{}, false
			}
			etherType = binary.BigEndian.Uint16(data[2:4])
			data = data[4:]
		}
		if etherType != 0x0800 { // not IPv4
			pr.stats.SkippedNonIP++
			return hashing.FiveTuple{}, false
		}
	}
	return pr.parseIPv4(data)
}

func (pr *oracleReader) parseIPv4(data []byte) (hashing.FiveTuple, bool) {
	if len(data) < 20 {
		pr.stats.SkippedTruncated++
		return hashing.FiveTuple{}, false
	}
	if data[0]>>4 != 4 {
		pr.stats.SkippedNonIP++
		return hashing.FiveTuple{}, false
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < 20 || len(data) < ihl {
		pr.stats.SkippedTruncated++
		return hashing.FiveTuple{}, false
	}
	fragField := binary.BigEndian.Uint16(data[6:8])
	if fragField&0x1fff != 0 { // nonzero fragment offset: no L4 header
		pr.stats.SkippedFragments++
		return hashing.FiveTuple{}, false
	}
	t := hashing.FiveTuple{
		SrcIP: binary.BigEndian.Uint32(data[12:16]),
		DstIP: binary.BigEndian.Uint32(data[16:20]),
		Proto: data[9],
	}
	l4 := data[ihl:]
	switch t.Proto {
	case 6, 17: // TCP, UDP: ports in the first 4 bytes
		if len(l4) < 4 {
			pr.stats.SkippedTruncated++
			return hashing.FiveTuple{}, false
		}
		t.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		t.DstPort = binary.BigEndian.Uint16(l4[2:4])
	case 1: // ICMP: no ports; type/code distinguish "flows" poorly, use 0
		t.SrcPort, t.DstPort = 0, 0
	default:
		pr.stats.SkippedTransport++
		return hashing.FiveTuple{}, false
	}
	return t, true
}

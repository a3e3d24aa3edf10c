package dataplane

import (
	"encoding/binary"
	"fmt"
)

// Wire (de)serialization of MIFO packets as real IPv4 datagrams — the
// representation the paper's kernel-module forwarding engine manipulates:
//
//   - the valley-free tag travels in the IPv4 reserved flag bit
//     (Section III-A4's "one reserved bit in IP header" option);
//   - deflection across iBGP peers is genuine IP-in-IP (protocol 4): an
//     outer IPv4 header whose source/destination are the router addresses.
//
// Router IDs and destination prefixes map into the 10.0.0.0/8 and
// 198.18.0.0/15 spaces respectively, which keeps the headers valid and
// readable in hex dumps while staying inside documentation/benchmark
// address ranges.

const (
	ipv4Version    = 4
	ipv4MinIHL     = 5
	protoIPinIP    = 4
	protoTCP       = 6
	defaultWireTTL = 64

	ipv4HeaderLen = 4 * ipv4MinIHL
	portsLen      = 4
	// MaxWireLen is the length of the longest datagram MarshalPacket
	// produces: outer header, inner header, ports.
	MaxWireLen = 2*ipv4HeaderLen + portsLen
)

// RouterAddr returns the 10.x.y.z address of a router.
func RouterAddr(id RouterID) uint32 {
	return 0x0A000000 | uint32(id)&0x00FFFFFF
}

// RouterFromAddr inverts RouterAddr.
func RouterFromAddr(addr uint32) RouterID {
	return RouterID(addr & 0x00FFFFFF)
}

// PrefixAddr returns the 198.18.x.y address of a destination prefix.
func PrefixAddr(dst int32) uint32 {
	return 0xC6120000 | uint32(dst)&0x0000FFFF
}

// PrefixFromAddr inverts PrefixAddr.
func PrefixFromAddr(addr uint32) int32 {
	return int32(addr & 0x0000FFFF)
}

// MarshalPacket serializes p as an IPv4 datagram (with an outer IP-in-IP
// header when p.Encap is set). The inner payload carries the five-tuple as
// a minimal TCP-like header (ports only) so the flow hash survives the
// wire. It allocates once: the datagram.
func MarshalPacket(p *Packet) []byte {
	return AppendPacket(make([]byte, 0, WireLen(p)), p)
}

// AppendPacket appends the bytes MarshalPacket returns for p to dst and
// returns the extended slice. It allocates only when dst must grow.
func AppendPacket(dst []byte, p *Packet) []byte {
	n := WireLen(p)
	off := len(dst)
	var room [MaxWireLen]byte
	dst = append(dst, room[:n]...)
	b := dst[off:]
	if p.Encap {
		h := outerHeader(p)
		putIPv4(b, &h, n)
		b = b[ipv4HeaderLen:]
	}
	h := innerHeader(p)
	putIPv4(b, &h, len(b))
	putPorts(b[ipv4HeaderLen:], p.Flow.SrcPort, p.Flow.DstPort)
	return dst
}

// WireLen is the length of the datagram MarshalPacket produces for p.
func WireLen(p *Packet) int {
	if p.Encap {
		return MaxWireLen
	}
	return ipv4HeaderLen + portsLen
}

func innerHeader(p *Packet) ipv4Header {
	dstAddr := p.Flow.DstAddr
	if dstAddr == 0 {
		dstAddr = PrefixAddr(p.Dst)
	}
	return ipv4Header{
		srcAddr:  p.Flow.SrcAddr,
		dstAddr:  dstAddr,
		protocol: p.Flow.Proto,
		ttl:      uint8(clampTTL(p.TTL)),
		ident:    p.ID,
		tag:      p.Tag,
	}
}

func outerHeader(p *Packet) ipv4Header {
	return ipv4Header{
		srcAddr:  RouterAddr(p.OuterSrc),
		dstAddr:  RouterAddr(p.OuterDst),
		protocol: protoIPinIP,
		ttl:      defaultWireTTL,
		ident:    p.ID,
	}
}

// UnmarshalPacket parses a datagram produced by MarshalPacket.
func UnmarshalPacket(b []byte) (*Packet, error) {
	p := &Packet{}
	if err := UnmarshalPacketInto(p, b); err != nil {
		return nil, err
	}
	return p, nil
}

// UnmarshalPacketInto is UnmarshalPacket into a packet the caller owns: on
// success every field of p is overwritten, on error p holds nothing of use.
func UnmarshalPacketInto(p *Packet, b []byte) error {
	hdr, err := parseIPv4(b)
	if err != nil {
		return err
	}
	*p = Packet{}
	if hdr.protocol == protoIPinIP {
		p.Encap = true
		p.OuterSrc = RouterFromAddr(hdr.srcAddr)
		p.OuterDst = RouterFromAddr(hdr.dstAddr)
		hdr, err = parseIPv4(hdr.payload)
		if err != nil {
			return fmt.Errorf("dataplane: inner packet: %w", err)
		}
	}
	sp, dp, err := parsePorts(hdr.payload)
	if err != nil {
		return err
	}
	p.Flow = FlowKey{
		SrcAddr: hdr.srcAddr,
		DstAddr: hdr.dstAddr,
		SrcPort: sp,
		DstPort: dp,
		Proto:   hdr.protocol,
	}
	p.Dst = PrefixFromAddr(hdr.dstAddr)
	p.ID = hdr.ident
	p.Tag = hdr.tag
	p.TTL = int(hdr.ttl)
	return nil
}

type ipv4Header struct {
	srcAddr, dstAddr uint32
	protocol         uint8
	ttl              uint8
	ident            uint16 // Identification: the flight recorder's packet ID
	tag              bool   // the reserved flag bit
	payload          []byte
}

// putIPv4 writes h's header, checksum included, over b[:ipv4HeaderLen] for
// a datagram of total bytes; h.payload is not looked at.
func putIPv4(b []byte, h *ipv4Header, total int) {
	b = b[:ipv4HeaderLen]
	b[0] = ipv4Version<<4 | ipv4MinIHL
	b[1] = 0
	binary.BigEndian.PutUint16(b[2:4], uint16(total))
	binary.BigEndian.PutUint16(b[4:6], h.ident)
	var flags uint16
	if h.tag {
		flags |= 1 << 15 // the reserved bit carries MIFO's tag
	}
	binary.BigEndian.PutUint16(b[6:8], flags)
	b[8] = h.ttl
	b[9] = h.protocol
	b[10], b[11] = 0, 0
	binary.BigEndian.PutUint32(b[12:16], h.srcAddr)
	binary.BigEndian.PutUint32(b[16:20], h.dstAddr)
	binary.BigEndian.PutUint16(b[10:12], ipv4Checksum(b))
}

func parseIPv4(b []byte) (ipv4Header, error) {
	var h ipv4Header
	if len(b) < 20 {
		return h, fmt.Errorf("dataplane: datagram too short (%d bytes)", len(b))
	}
	if b[0]>>4 != ipv4Version {
		return h, fmt.Errorf("dataplane: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0x0F) * 4
	if ihl < 20 || ihl > len(b) {
		return h, fmt.Errorf("dataplane: bad IHL %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(b[2:4]))
	if total < ihl || total > len(b) {
		return h, fmt.Errorf("dataplane: bad total length %d (have %d)", total, len(b))
	}
	if ipv4Checksum(b[:ihl]) != 0 {
		return h, fmt.Errorf("dataplane: header checksum mismatch")
	}
	h.ident = binary.BigEndian.Uint16(b[4:6])
	h.tag = binary.BigEndian.Uint16(b[6:8])&(1<<15) != 0
	h.ttl = b[8]
	h.protocol = b[9]
	h.srcAddr = binary.BigEndian.Uint32(b[12:16])
	h.dstAddr = binary.BigEndian.Uint32(b[16:20])
	h.payload = b[ihl:total]
	return h, nil
}

// ipv4Checksum computes the RFC 1071 header checksum. Over a header whose
// checksum field is zero it returns the value to store; over a complete
// valid header it returns zero.
func ipv4Checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xFFFF {
		sum = (sum & 0xFFFF) + sum>>16
	}
	return ^uint16(sum)
}

func putPorts(b []byte, src, dst uint16) {
	binary.BigEndian.PutUint16(b[0:2], src)
	binary.BigEndian.PutUint16(b[2:4], dst)
}

func parsePorts(b []byte) (uint16, uint16, error) {
	if len(b) < 4 {
		return 0, 0, fmt.Errorf("dataplane: transport header too short (%d bytes)", len(b))
	}
	return binary.BigEndian.Uint16(b[0:2]), binary.BigEndian.Uint16(b[2:4]), nil
}

func clampTTL(ttl int) int {
	if ttl <= 0 {
		return defaultWireTTL
	}
	if ttl > 255 {
		return 255
	}
	return ttl
}

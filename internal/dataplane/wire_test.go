package dataplane

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func samplePacket() *Packet {
	return &Packet{
		Flow: FlowKey{
			SrcAddr: 0x0A000001,
			SrcPort: 43211,
			DstPort: 80,
			Proto:   protoTCP,
		},
		Dst: 1234,
		Tag: true,
		TTL: 17,
	}
}

func TestWireRoundTripPlain(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	b := MarshalPacket(p)
	got, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *p {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, p)
	}
}

func TestWireRoundTripEncap(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	p.Encap = true
	p.OuterSrc = 7
	p.OuterDst = 42
	b := MarshalPacket(p)
	// Outer header must be protocol 4 (IP-in-IP).
	if b[9] != protoIPinIP {
		t.Fatalf("outer protocol = %d, want 4", b[9])
	}
	got, err := UnmarshalPacket(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Encap || got.OuterSrc != 7 || got.OuterDst != 42 {
		t.Fatalf("encap fields lost: %+v", got)
	}
	if got.Flow != p.Flow || got.Tag != p.Tag || got.Dst != p.Dst {
		t.Fatalf("inner fields lost: %+v", got)
	}
}

func TestWireTagBitPlacement(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	p.Tag = true
	b := MarshalPacket(p)
	flags := binary.BigEndian.Uint16(b[6:8])
	if flags&(1<<15) == 0 {
		t.Error("tag must sit in the IPv4 reserved flag bit")
	}
	p.Tag = false
	b = MarshalPacket(p)
	if binary.BigEndian.Uint16(b[6:8])&(1<<15) != 0 {
		t.Error("cleared tag still set on the wire")
	}
}

// The tag is the IPv4 reserved flag bit, so it must leave the rest of the
// flags/fragment halfword alone.
func TestIPReservedBitPreservesFragment(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)

	// Turning the tag on or off changes only bit 15 of the flags/fragment
	// halfword of the header that carries it (the inner one under
	// IP-in-IP), plus that header's checksum.
	for _, encap := range []bool{false, true} {
		p.Encap, p.OuterSrc, p.OuterDst = encap, 7, 42
		p.Tag = false
		off := MarshalPacket(p)
		p.Tag = true
		on := MarshalPacket(p)
		h := 0
		if encap {
			h = ipv4HeaderLen
		}
		if d := binary.BigEndian.Uint16(on[h+6:]) ^ binary.BigEndian.Uint16(off[h+6:]); d != 1<<15 {
			t.Errorf("encap=%v: tag changed flags/fragment bits %#04x, want only bit 15", encap, d)
		}
		for i := range on {
			if on[i] != off[i] && (i < h+6 || i >= h+12 || i == h+8 || i == h+9) {
				t.Errorf("encap=%v: tag changed byte %d (%#02x -> %#02x)", encap, i, off[i], on[i])
			}
		}
	}
}

func TestWireChecksumValidity(t *testing.T) {
	p := samplePacket()
	p.Flow.DstAddr = PrefixAddr(p.Dst)
	b := MarshalPacket(p)
	if ipv4Checksum(b[:20]) != 0 {
		t.Error("serialized header checksum does not verify")
	}
	// Corrupt one byte: parse must fail.
	b[16] ^= 0xFF
	if _, err := UnmarshalPacket(b); err == nil {
		t.Error("corrupted datagram parsed successfully")
	}
}

// TestMarshalPacketBytesAndAllocs pins the datagrams of a plain and an
// encapsulated packet byte for byte, and requires one allocation per
// marshal, the datagram itself: the encapsulated form is written in place,
// not built as an inner datagram and copied behind an outer header.
func TestMarshalPacketBytesAndAllocs(t *testing.T) {
	plain := samplePacket()
	plain.ID = 0xBEEF
	encap := *plain
	encap.Encap, encap.OuterSrc, encap.OuterDst = true, 7, 42
	for _, c := range []struct {
		name string
		p    *Packet
		want string
	}{
		{"plain", plain, "45000018beef80001106960b0a000001c61204d2a8cb0050"},
		{"encap", &encap, "4500002cbeef00004004a7ae0a0000070a00002a45000018beef80001106960b0a000001c61204d2a8cb0050"},
	} {
		if got := hex.EncodeToString(MarshalPacket(c.p)); got != c.want {
			t.Errorf("%s: marshaled %s, want %s", c.name, got, c.want)
		}
		var wire []byte
		if n := testing.AllocsPerRun(100, func() { wire = MarshalPacket(c.p) }); n != 1 || len(wire) != WireLen(c.p) {
			t.Errorf("%s: %v allocations per marshal of %d bytes, want 1", c.name, n, len(wire))
		}
	}
}

func TestWireMalformedInputs(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       {0x45, 0, 0, 10},
		"not-ipv4":    append([]byte{0x65}, make([]byte, 30)...),
		"bad-ihl":     append([]byte{0x4F}, make([]byte, 30)...),
		"bad-total":   func() []byte { b := MarshalPacket(samplePacket()); binary.BigEndian.PutUint16(b[2:4], 9); return b }(),
		"short-ports": func() []byte { b := MarshalPacket(samplePacket()); return b[:21] }(),
	}
	for name, b := range cases {
		if _, err := UnmarshalPacket(b); err == nil {
			t.Errorf("%s: want parse error", name)
		}
	}
}

func TestAddrMappings(t *testing.T) {
	if got := RouterFromAddr(RouterAddr(99)); got != 99 {
		t.Errorf("router addr round trip = %d", got)
	}
	if got := PrefixFromAddr(PrefixAddr(4321)); got != 4321 {
		t.Errorf("prefix addr round trip = %d", got)
	}
	if RouterAddr(1)>>24 != 10 {
		t.Error("router addresses must live in 10/8")
	}
	if PrefixAddr(1)>>16 != 0xC612 {
		t.Error("prefix addresses must live in 198.18/15")
	}
}

// Property: marshal/unmarshal is the identity on the carried fields.
func TestQuickWireRoundTrip(t *testing.T) {
	f := func(srcAddr uint32, sp, dp uint16, dst int16, tag, encap bool, outerSrc, outerDst uint16, ttl uint8) bool {
		if ttl == 0 {
			ttl = 1
		}
		p := &Packet{
			Flow: FlowKey{SrcAddr: srcAddr, SrcPort: sp, DstPort: dp, Proto: protoTCP},
			Dst:  int32(uint16(dst)),
			Tag:  tag,
			TTL:  int(ttl),
		}
		p.Flow.DstAddr = PrefixAddr(p.Dst)
		if encap {
			p.Encap = true
			p.OuterSrc = RouterID(outerSrc)
			p.OuterDst = RouterID(outerDst)
		}
		b := MarshalPacket(p)
		got, err := UnmarshalPacket(b)
		if err != nil {
			return false
		}
		return *got == *p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A forwarded-then-marshaled packet equals a marshaled-then-forwarded one:
// the wire format commutes with the engine's mutations (tagging, encap).
func TestWireCommutesWithForwarding(t *testing.T) {
	n, r1, r2, _, _ := fig2bNet(t)
	_ = r2
	r1.SetQueueRatio(0, 1.0) // congest the default: R1 will encapsulate
	p := &Packet{Flow: FlowKey{SrcAddr: 7, DstAddr: PrefixAddr(0), DstPort: 80, Proto: protoTCP}, Dst: 0, TTL: 32}
	act := r1.Forward(p, -1)
	if act.Verdict != VerdictForward || !p.Encap {
		t.Fatalf("expected encapsulating forward, got %+v (encap=%v)", act, p.Encap)
	}
	onWire := MarshalPacket(p)
	back, err := UnmarshalPacket(onWire)
	if err != nil {
		t.Fatal(err)
	}
	// TTL is not decremented by Forward (the Network does it), so the
	// packet must survive the wire unchanged.
	if *back != *p {
		t.Fatalf("wire altered the packet:\n got %+v\nwant %+v", back, p)
	}
	if !bytes.Equal(onWire, MarshalPacket(back)) {
		t.Fatal("re-marshaling is not stable")
	}
	_ = n
}

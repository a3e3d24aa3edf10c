package dataplane

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzUnmarshalPacket hardens the wire parser: arbitrary bytes must never
// panic, and anything that parses must re-marshal to a parseable datagram
// carrying the same fields. The forms netd's receive loop uses must agree
// with the allocating ones on every input: UnmarshalPacketInto parses the
// same packet or fails too, and AppendPacket appends MarshalPacket's bytes.
func FuzzUnmarshalPacket(f *testing.F) {
	plain := samplePacket()
	plain.Flow.DstAddr = PrefixAddr(plain.Dst)
	f.Add(MarshalPacket(plain))
	encap := samplePacket()
	encap.Flow.DstAddr = PrefixAddr(encap.Dst)
	encap.Encap = true
	encap.OuterSrc, encap.OuterDst = 1, 2
	f.Add(MarshalPacket(encap))
	f.Add([]byte{})
	f.Add([]byte{0x45, 0x00, 0x00, 0x14})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	unaddressed := samplePacket() // MarshalPacket fills a zero DstAddr in from Dst
	unaddressed.Dst = 0
	toZero := MarshalPacket(unaddressed)
	copy(toZero[16:20], []byte{0, 0, 0, 0})
	binary.BigEndian.PutUint16(toZero[10:12], 0)
	binary.BigEndian.PutUint16(toZero[10:12], ipv4Checksum(toZero[:20]))
	f.Add(toZero)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := UnmarshalPacket(data)
		into := Packet{ID: 7, Encap: true, OuterSrc: 3, TTL: 1} // what an earlier datagram left behind
		errInto := UnmarshalPacketInto(&into, data)
		if (err == nil) != (errInto == nil) {
			t.Fatalf("UnmarshalPacket: %v, UnmarshalPacketInto: %v", err, errInto)
		}
		if err != nil {
			return
		}
		if into != *p {
			t.Fatalf("parsed into\n  %+v\nbut UnmarshalPacket returns\n  %+v", into, *p)
		}
		wire := MarshalPacket(p)
		prefix := []byte("earlier run")
		if got := AppendPacket(prefix, p); !bytes.Equal(got[len(prefix):], wire) || len(wire) != WireLen(p) {
			t.Fatalf("AppendPacket appended %x, MarshalPacket returns %x, WireLen %d", got[len(prefix):], wire, WireLen(p))
		}
		// Successful parses must round trip stably.
		again, err := UnmarshalPacket(wire)
		if err != nil {
			t.Fatalf("re-marshal failed: %v (packet %+v)", err, p)
		}
		if p.Flow.DstAddr == 0 {
			p.Flow.DstAddr = PrefixAddr(p.Dst) // a datagram to 0.0.0.0 goes out addressed by its prefix
		}
		if again.Flow != p.Flow || again.Tag != p.Tag || again.Encap != p.Encap {
			t.Fatalf("unstable round trip:\n  %+v\n  %+v", p, again)
		}
	})
}

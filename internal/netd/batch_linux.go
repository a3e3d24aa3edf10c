package netd

import (
	"encoding/binary"
	"net"
	"net/netip"
	"syscall"
	"unsafe"
)

// The Linux side of the receive loop and the only file of the package that
// needs unsafe: recvmmsg, and the two UDP offloads that let one system call
// carry a run of datagrams, UDP_SEGMENT on the way out and UDP_GRO on the
// way in. The syscall package has the message header types but neither the
// option numbers nor struct mmsghdr.
const (
	solUDP     = 17  // SOL_UDP
	udpSegment = 103 // UDP_SEGMENT: cmsg of a send, uint16 segment size
	udpGRO     = 104 // UDP_GRO: socket option, and cmsg of a receive, int segment size
)

// mmsghdr is struct mmsghdr of recvmmsg(2). As in C, the compiler pads it
// to the alignment of the message header, 64 bytes where pointers have 8
// and 32 where they have 4.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32 // bytes received into this message
}

// newReader switches GRO on and returns the batch reader; the socket then
// also sends UDP_SEGMENT runs, which take no option, until one fails.
// Where the kernel refuses GRO the node reads and sends one datagram at a
// time.
func newReader(conn *net.UDPConn) (rx reader, offload bool) {
	rc, err := conn.SyscallConn()
	if err == nil {
		cerr := rc.Control(func(fd uintptr) {
			err = syscall.SetsockoptInt(int(fd), solUDP, udpGRO, 1)
		})
		if cerr != nil {
			err = cerr
		}
	}
	if err != nil {
		return &oneReader{conn: conn}, false
	}
	r := &batchReader{rc: rc, bufs: make([]byte, maxBatch*slotSize)}
	for i := range r.hdrs {
		h := &r.hdrs[i].hdr
		r.iovs[i].Base = &r.bufs[i*slotSize]
		r.iovs[i].SetLen(slotSize)
		h.Iov = &r.iovs[i]
		h.Iovlen = 1
		h.Name = (*byte)(unsafe.Pointer(&r.names[i]))
		h.Control = &r.oobs[i][0]
	}
	r.recv = r.recvmmsg
	return r, true
}

// batchReader drains a socket with one non-blocking recvmmsg per wake-up.
type batchReader struct {
	rc    syscall.RawConn
	hdrs  [maxBatch]mmsghdr
	iovs  [maxBatch]syscall.Iovec
	names [maxBatch]syscall.RawSockaddrInet4
	oobs  [maxBatch][oobSpace]byte
	bufs  []byte // maxBatch slots of slotSize bytes
	// recv is the recvmmsg method as a value made once: a method value
	// made per read would be an allocation per read.
	recv  func(fd uintptr) bool
	vlen  uintptr // messages the next recvmmsg asks for
	got   int
	errno syscall.Errno
}

func (r *batchReader) read(msgs []message) (int, error) {
	// The kernel writes the lengths and flags of what it received over
	// what it was offered.
	for i := range r.hdrs {
		h := &r.hdrs[i].hdr
		h.Namelen = syscall.SizeofSockaddrInet4
		h.SetControllen(oobSpace)
		h.Flags = 0
	}
	r.vlen = maxBatch
	if err := r.rc.Read(r.recv); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, r.errno
	}
	for i := 0; i < r.got; i++ {
		h, sa, m := &r.hdrs[i], &r.names[i], &msgs[i]
		m.data = r.bufs[i*slotSize : i*slotSize+int(h.n)]
		var port [2]byte // sa.Port holds the two bytes in network order
		binary.NativeEndian.PutUint16(port[:], sa.Port)
		m.from = netip.AddrPortFrom(netip.AddrFrom4(sa.Addr), binary.BigEndian.Uint16(port[:]))
		m.seg = groSegment(r.oobs[i][:h.hdr.Controllen])
		m.trunc = h.hdr.Flags&syscall.MSG_TRUNC != 0
	}
	return r.got, nil
}

// recvmmsg runs under RawConn.Read, which calls it again once the socket
// is readable for as long as it returns false. The first call of a read
// asks for a full batch. A call after a wait asks for one message: the
// socket was empty a moment ago, so one datagram is the likely content,
// and a batch call would pay a second, failing receive inside the kernel
// to learn that (about 0.1 us a hop on the benchmark's latency probe). What
// else has arrived by then, the next read's first call takes.
func (r *batchReader) recvmmsg(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), r.vlen, syscall.MSG_DONTWAIT, 0, 0)
		switch errno {
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			r.vlen = 1
			return false
		}
		r.got, r.errno = int(n), errno
		return true
	}
}

// cmsghdrBytes views a control message header as the bytes it occupies in
// a control buffer. Copying through it, where a cast of the buffer would
// do, asks nothing of the buffer's alignment.
func cmsghdrBytes(h *syscall.Cmsghdr) []byte {
	return (*[syscall.SizeofCmsghdr]byte)(unsafe.Pointer(h))[:]
}

// groSegment returns the segment size a received control buffer reports,
// 0 when it holds no UDP_GRO message: the datagram came alone.
func groSegment(oob []byte) int {
	if len(oob) < syscall.CmsgLen(4) {
		return 0
	}
	var h syscall.Cmsghdr
	copy(cmsghdrBytes(&h), oob)
	if h.Level != solUDP || h.Type != udpGRO {
		return 0
	}
	return int(int32(binary.NativeEndian.Uint32(oob[syscall.CmsgLen(0):])))
}

// segmentControl builds in oob the control message that makes one send
// leave as datagrams of seg bytes, and returns it.
func segmentControl(oob []byte, seg int) []byte {
	oob = oob[:syscall.CmsgSpace(2)]
	clear(oob)
	h := syscall.Cmsghdr{Level: solUDP, Type: udpSegment}
	h.SetLen(syscall.CmsgLen(2))
	copy(oob, cmsghdrBytes(&h))
	binary.NativeEndian.PutUint16(oob[syscall.CmsgLen(0):], uint16(seg))
	return oob
}

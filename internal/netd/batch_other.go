//go:build !linux

package netd

import "net"

// Off Linux there is neither recvmmsg nor the UDP offloads: every node
// reads and sends one datagram at a time.
func newReader(conn *net.UDPConn) (rx reader, offload bool) {
	return &oneReader{conn: conn}, false
}

// groSegment has nothing to find: no socket has GRO on.
func groSegment([]byte) int { return 0 }

// segmentControl is never reached: no node has gso set.
func segmentControl(oob []byte, _ int) []byte { return oob[:0] }

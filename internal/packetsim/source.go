package packetsim

// source is a reliable AIMD transport endpoint: additive increase per ACK,
// multiplicative decrease on loss (at most once per round trip), immediate
// retransmission of lost sequence numbers. It captures the TCP behaviors
// the testbed experiment depends on — fair sharing on shared bottlenecks
// and goodput proportional to the achieved rate — without modeling
// slow-start timers or SACK.
type source struct {
	spec  FlowSpec
	total int // payload packets to deliver

	cwnd     float64
	ssthresh float64 // slow-start threshold; exponential growth below it
	inflight int
	nextSeq  int
	resend   []int
	acked    map[int]bool

	started  float64
	finished float64
	running  bool
	done     bool
	aborted  bool

	lastCut float64 // time of the last multiplicative decrease

	retransmits     int
	queueDrops      int
	hardDrops       int
	deflected       int
	delivered       int
	consecutiveHard int
}

// startFlow begins a flow's transmission.
func (s *Sim) startFlow(idx int) {
	src := s.sources[idx]
	if src.running || src.done {
		return
	}
	src.running = true
	src.started = s.now
	src.acked = make(map[int]bool, src.total)
	src.lastCut = -1
	src.ssthresh = 1e18 // slow-start until the first loss
	s.pump(idx)
}

// pump injects packets while the window allows.
func (s *Sim) pump(idx int) {
	src := s.sources[idx]
	if !src.running || src.done || src.aborted {
		return
	}
	for src.inflight < int(src.cwnd) {
		seq := -1
		if len(src.resend) > 0 {
			seq = src.resend[0]
			src.resend = src.resend[1:]
			src.retransmits++
		} else if src.nextSeq < src.total {
			seq = src.nextSeq
			src.nextSeq++
		} else {
			return
		}
		src.inflight++
		s.inject(idx, seq)
	}
}

// ack processes a delivered packet.
func (s *Sim) ack(idx, seq int) {
	src := s.sources[idx]
	if src.done || src.aborted {
		return
	}
	src.inflight--
	src.consecutiveHard = 0
	if !src.acked[seq] {
		src.acked[seq] = true
		src.delivered++
		s.bucket += packetBytes * 8
		s.totalBits += packetBytes * 8
	}
	if src.cwnd < src.ssthresh {
		src.cwnd++ // slow start: exponential growth per RTT
	} else {
		src.cwnd += 1 / src.cwnd // congestion avoidance: additive increase
	}
	if src.delivered >= src.total {
		src.done = true
		src.running = false
		src.finished = s.now
		s.onComplete(idx)
		return
	}
	s.pump(idx)
}

// loss processes a dropped packet: the sequence is queued for
// retransmission and the window is halved (at most once per round trip).
// hard marks drops by the forwarding engine itself rather than full queues.
func (s *Sim) loss(idx, seq int, hard bool) {
	src := s.sources[idx]
	if src.done || src.aborted {
		return
	}
	src.inflight--
	if !src.acked[seq] {
		src.resend = append(src.resend, seq)
	}
	if hard {
		src.consecutiveHard++
		if src.consecutiveHard >= s.maxHardDrops {
			src.aborted = true
			src.running = false
			s.onComplete(idx)
			return
		}
	}
	const rtt = 2*ackDelay + 4*propDelay
	if src.lastCut < 0 || s.now-src.lastCut > rtt {
		src.cwnd /= 2
		if src.cwnd < 2 {
			src.cwnd = 2
		}
		src.ssthresh = src.cwnd
		src.lastCut = s.now
	}
	s.pump(idx)
}

// onComplete releases successors waiting on this flow.
func (s *Sim) onComplete(idx int) {
	for j, other := range s.sources {
		if other.spec.After == idx && !other.running && !other.done && !other.aborted {
			s.queue.Push(s.now, evFlowStart, j)
		}
	}
}

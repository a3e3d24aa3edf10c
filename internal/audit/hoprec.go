package audit

import "repro/internal/dataplane"

// hopRec ops.
const (
	opHop uint8 = iota
	opLost
	opPath
)

// hopRec flags.
const (
	flagPathFirst uint8 = 1 << iota
	flagPathLast
	flagPathEmpty // head of a zero-step path: carries no step of its own
)

// hopRec is the fixed-size unit the hot path writes: one forwarding
// decision (or loss notice, or one step of a flow path) plus the journey
// identity needed to stitch it back together off the hot path. detail
// only ever holds compile-time constant strings (loss reasons), so
// copying a hopRec never allocates.
type hopRec struct {
	flow     dataplane.FlowKey
	flowID   uint64
	dst      int32
	baseline int32
	pktID    uint16
	op       uint8
	flags    uint8
	verdict  dataplane.Verdict
	reason   dataplane.DropReason
	detail   string
	step     Step
}

// Package leakcheck fails a package's tests when a goroutine they started
// is still alive after them. Every package whose tests build a goroutine
// owner (a fabric, load monitor, debug server or daemon runtime) or start
// goroutines of their own runs it from its TestMain:
//
//	func TestMain(m *testing.M) {
//		leakcheck.Main(m)
//	}
//
// An owner whose teardown is never called, or whose teardown leaves its
// goroutine running, shows up as the goroutine itself: the stack it is
// parked in, and the "created by" line naming the function that started
// it (the test, for a goroutine a test starts itself) and the goroutine
// that ran that function. A teardown that returns before its goroutine
// exits is caught by the owner's own tests, through Parked.
package leakcheck

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// grace bounds how long a goroutine that was told to stop may take to
// finish exiting: a teardown that joins on a channel returns while the
// joined goroutine still runs its deferred calls.
const grace = 2 * time.Second

// Main runs the package's tests and exits with their result. When they
// pass but leave a goroutine behind, it prints each leaked goroutine's
// stack and exits 1.
func Main(m *testing.M) {
	before := map[uint64]bool{}
	for _, g := range goroutines() {
		before[g.id] = true
	}
	code := m.Run()
	if code == 0 {
		if leaked := leaked(before); len(leaked) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) started by the tests are still running"+
				" (GODEBUG=tracebackancestors=5 adds the stack that started each):\n\n", len(leaked))
			for _, g := range leaked {
				fmt.Fprintf(os.Stderr, "%s\n\n", g.stack)
			}
			code = 1
		}
	}
	os.Exit(code)
}

// leaked returns the goroutines alive now that are not in before, after
// giving them grace to exit. The standard library's signal loop is not
// one: the first signal.Notify (the fuzzing coordinator's, say) starts it
// for the rest of the process.
func leaked(before map[uint64]bool) []goroutine {
	deadline := time.Now().Add(grace)
	for {
		var out []goroutine
		for _, g := range goroutines() {
			if !before[g.id] && !strings.Contains(g.stack, "\nos/signal.loop()") {
				out = append(out, g)
			}
		}
		if len(out) == 0 || time.Now().After(deadline) {
			return out
		}
		// Yield for a millisecond of wall time between looks: each look
		// stops the world, and the stragglers need the processor.
		for next := time.Now().Add(time.Millisecond); time.Now().Before(next); {
			runtime.Gosched()
		}
	}
}

// Parked reports whether some goroutine is parked for reason (the state
// runtime.Stack prints in brackets, such as "sync.WaitGroup.Wait") with a
// call to fn (such as "core.(*Runtime).Stop") on its stack. A test of a
// teardown uses it to see the teardown wait for a goroutine the test
// holds, where a teardown that does not wait would have returned.
func Parked(reason, fn string) bool {
	for _, g := range goroutines() {
		if g.reason == reason && strings.Contains(g.stack, fn+"(") {
			return true
		}
	}
	return false
}

type goroutine struct {
	id     uint64
	reason string
	stack  string
}

// goroutines returns every user goroutine's ID, state and stack, as
// runtime.Stack prints them.
func goroutines() []goroutine {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []goroutine
	for _, block := range bytes.Split(buf, []byte("\n\n")) {
		// Each block starts "goroutine <id> [<state>[, <minutes>]]:".
		head, state, _ := bytes.Cut(block, []byte(" ["))
		id, err := strconv.ParseUint(string(bytes.TrimPrefix(head, []byte("goroutine "))), 10, 64)
		if err != nil {
			continue
		}
		reason, _, _ := bytes.Cut(state, []byte("]"))
		reason, _, _ = bytes.Cut(reason, []byte(","))
		out = append(out, goroutine{id: id, reason: string(reason), stack: string(bytes.TrimSpace(block))})
	}
	return out
}

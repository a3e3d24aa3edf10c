package worker

// UseAndClose keeps the teardown path: fine.
func UseAndClose() {
	p := NewPump()
	defer p.Close()
	p.Feed(1)
}

// Drop discards a goroutine-owning result on the floor.
func Drop() {
	NewPump() // want `never closed`
}

// Forget binds the result but never closes it; `_ = p` silences the
// compiler, not the goroutine — the pre-fix recorder-test leak shape.
func Forget() {
	p := NewPump() // want `never closed`
	_ = p
}

// DropStation discards a wrapper around a goroutine-owning result.
func DropStation() {
	NewStation() // want `never closed`
}

// UseStation closes the wrapper, which closes the Pump.
func UseStation() {
	s := NewStation()
	defer s.Close()
}

// UseWatch invokes the returned stop function: fine.
func UseWatch() {
	stop := Watch()
	stop()
}

// DropWatch never calls the stop function.
func DropWatch() {
	Watch() // want `never closed`
}

// FireAndForget drops a result with a recorded waiver.
func FireAndForget() {
	//mifolint:ignore lifecycle corpus case: waiver with a recorded reason is honored
	NewPump()
}

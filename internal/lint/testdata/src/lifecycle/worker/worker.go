// Package worker exercises the lifecycle analyzer: goroutine-spawning
// constructors must expose a teardown, closers must drain, and callers
// must keep a path to the teardown.
package worker

import "sync"

// Pump drains its input in the background; Close joins the goroutine.
type Pump struct {
	ch   chan int
	done chan struct{}
}

// NewPump spawns the drain goroutine; callers own the Close.
func NewPump() *Pump {
	p := &Pump{ch: make(chan int), done: make(chan struct{})}
	go p.run()
	return p
}

func (p *Pump) run() {
	for range p.ch {
	}
	close(p.done)
}

// Feed hands one value to the pump.
func (p *Pump) Feed(v int) {
	p.ch <- v
}

// Close provides the drain barrier.
func (p *Pump) Close() {
	close(p.ch)
	<-p.done
}

// Station wraps a Pump: it starts no goroutine itself but owns the
// Pump's, so its callers owe it a Close.
type Station struct {
	p *Pump
}

// NewStation hands the Pump's lifecycle to the Station.
func NewStation() *Station {
	return &Station{p: NewPump()}
}

// Close reaches the Pump's drain barrier.
func (s *Station) Close() { s.p.Close() }

// Orphan spawns a goroutine nobody can stop.
type Orphan struct {
	ch chan int
}

// NewOrphan leaks: Orphan exposes no Close/Stop/Shutdown.
func NewOrphan() *Orphan {
	o := &Orphan{ch: make(chan int)}
	go func() { // want `no way to stop it`
		for range o.ch {
		}
	}()
	return o
}

// Valve stops its goroutine by flag only: no drain barrier.
type Valve struct {
	mu   sync.Mutex
	stop bool
}

// NewValve spawns the spinner.
func NewValve() *Valve {
	v := &Valve{}
	go v.spin()
	return v
}

func (v *Valve) spin() {
	for {
		v.mu.Lock()
		s := v.stop
		v.mu.Unlock()
		if s {
			return
		}
	}
}

// Stop flips a flag and returns with the goroutine still running.
func (v *Valve) Stop() { // want `without a drain barrier`
	v.mu.Lock()
	v.stop = true
	v.mu.Unlock()
}

// Feeder spawns from a method on a type with no teardown.
type Feeder struct {
	ch chan int
}

// Start spawns; Feeder has no closer.
func (f *Feeder) Start() {
	go func() { // want `has no Close/Stop/Shutdown`
		for range f.ch {
		}
	}()
}

// Watch returns a stop function: invoking it is the teardown.
func Watch() func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-done
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// Fanout joins its workers before returning: fork-join owns no lifecycle.
func Fanout(items []int, fn func(int)) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func(x int) {
			defer wg.Done()
			fn(x)
		}(it)
	}
	wg.Wait()
}

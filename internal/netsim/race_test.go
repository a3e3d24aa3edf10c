//go:build race

package netsim

// raceDetector says the tests run under -race. It makes a paper-scale run
// ten times slower and 1.5 GB larger, and the run's one concurrent step,
// the parallel table build, is raced by bgp's own tests.
const raceDetector = true

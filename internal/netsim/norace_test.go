//go:build !race

package netsim

const raceDetector = false

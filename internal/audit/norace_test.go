//go:build !race

package audit

const raceDetector = false

//go:build race

package audit

// raceDetector says the tests run under -race, where sync.Pool drops a
// share of what is put back, so encoding/json's pooled encoder allocates.
const raceDetector = true

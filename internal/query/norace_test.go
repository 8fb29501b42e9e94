//go:build !race

package query

// raceEnabled reports a -race test binary (see race_test.go).
const raceEnabled = false

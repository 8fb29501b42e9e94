//go:build race

package query

// raceEnabled reports a -race test binary, whose sync.Pool drops Puts
// at random: allocation counts that rely on pooled scratch are not
// stable there.
const raceEnabled = true

//go:build race

package msg

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts at random, so pool-backed paths allocate on some calls.
const raceEnabled = true

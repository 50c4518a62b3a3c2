//go:build race

package wire

// raceEnabled reports a -race build, whose sync.Pool deliberately drops
// items and so allocates at random.
const raceEnabled = true

//go:build !race

package msg

const raceEnabled = false

//go:build race

package er

const raceEnabled = true

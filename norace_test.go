//go:build !race

package scdb

const raceEnabled = false

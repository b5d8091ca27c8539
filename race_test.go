//go:build race

package scdb

// raceEnabled: the race build's sync.Pool drops Puts on purpose, so the
// resolver's pooled Prepared is made again for about a quarter of arrivals
// and a delivery allocates more.
const raceEnabled = true

//go:build race

package shard_test

// raceEnabled: the race build's sync.Pool drops Puts on purpose, so the
// pooled frame encoders allocate more and allocation budgets do not hold.
const raceEnabled = true

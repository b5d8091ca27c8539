package scdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestDeliveryCostFlatInGraphSize: a small delivery costs what it
// delivers. Into an in-memory graph of n distinct Sensor entities (sub
// Sensor Device), twenty deliveries of 10 new Sensors each are timed, and
// the median at n = 16,000 must be within 3× of the median at n = 1,000.
// While every delivery ended with a recount of every entity's types for the
// optimizer's concept statistics, the medians were 0.79 and 15.6 ms (about
// 20×) on a 2-CPU linux/amd64 host with go1.24; since, about 0.1 ms each.
func TestDeliveryCostFlatInGraphSize(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a timing ratio: not under -short or -race")
	}
	small, large := medianDelivery(t, 1000), medianDelivery(t, 16000)
	t.Logf("median 10-entity delivery: %v into 1,000 entities, %v into 16,000 (%.1f×)", small, large, float64(large)/float64(small))
	if large > 3*small {
		t.Errorf("a 10-entity delivery into 16,000 entities took %v, more than 3× the %v it takes into 1,000", large, small)
	}
}

// medianDelivery loads n distinct Sensors as one source, then times twenty
// deliveries of 10 new Sensors from another and returns the median.
func medianDelivery(t *testing.T, n int) time.Duration {
	t.Helper()
	db, err := Open(Options{Axioms: "sub Sensor Device"})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rng := rand.New(rand.NewSource(int64(n)))
	serial := 0
	sensors := func(source string, k int) Source {
		src := Source{Name: source, Entities: make([]Entity, k)}
		for i := range src.Entities {
			serial++
			name := make([]byte, 17)
			for j := range name {
				name[j] = byte('a' + rng.Intn(26))
			}
			name[8] = ' '
			src.Entities[i] = Entity{Key: fmt.Sprintf("s%06d", serial), Types: []string{"Sensor"}, Attrs: Record{"name": string(name)}}
		}
		return src
	}
	if err := db.Ingest(sensors("fleet", n)); err != nil {
		t.Fatal(err)
	}
	times := make([]time.Duration, 20)
	for i := range times {
		src := sensors("feed", 10)
		start := time.Now()
		if err := db.Ingest(src); err != nil {
			t.Fatal(err)
		}
		times[i] = time.Since(start)
	}
	slices.Sort(times)
	return times[len(times)/2]
}

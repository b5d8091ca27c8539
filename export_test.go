package scdb

import "scdb/internal/curate"

// ToDelivery exposes the facade's conversion of a public source to the
// wire codec's tests, which compare the chunk decoder against it.
func ToDelivery(src Source) (curate.Delivery, error) { return toDelivery(src) }

package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"scdb"
	"scdb/client"
	"scdb/internal/curate"
	"scdb/internal/model"
	"scdb/internal/server"
	"scdb/internal/shard"
)

// awkwardDelivery is a delivery no maker writes, sent as the frames
// client.IngestDelivery writes of it: each entity's fields out of name
// order, one name given twice (the row keeps the last value), typed and
// untyped entities, and a value of every kind. Its keys land on every
// shard of three.
func awkwardDelivery() curate.Delivery {
	when := time.Date(2026, 5, 6, 7, 8, 9, 10, time.UTC)
	d := curate.Delivery{Source: "awkward"}
	for i, key := range keyOnEachShard("W", 3) {
		a := curate.Arrival{Key: key, Fields: []curate.Field{
			{Name: "zeta", Value: model.String(fmt.Sprint("z", i))},
			{Name: "name", Value: model.String("first")},
			{Name: "int", Value: model.Int(int64(-3 * i))},
			{Name: "float", Value: model.Float(float64(i) + 0.25)},
			{Name: "bool", Value: model.Bool(i%2 == 0)},
			{Name: "time", Value: model.Time(when.Add(time.Duration(i) * time.Hour))},
			{Name: "bytes", Value: model.Bytes([]byte{byte(i), 0, 0xff})},
			{Name: "list", Value: model.List(model.String("x"), model.Int(int64(i)))},
			{Name: "ref", Value: model.Ref(model.EntityID(100 + i))},
			{Name: "null", Value: model.Null()},
			{Name: "name", Value: model.String(fmt.Sprint("last ", i))},
		}}
		if i%2 == 1 {
			a.Types = []string{"Thing", "Other"}
		}
		d.Entities = append(d.Entities, a)
	}
	return d
}

// deliverArrivals hands d to the router as the router's server does: d
// written as one chunk frame (server.EncodeV2Arrivals, its fields in their
// order) and decoded back.
func deliverArrivals(ctx context.Context, r *shard.Router, d curate.Delivery) error {
	e := server.GetV2Enc()
	defer e.Release()
	frame, err := server.EncodeV2Arrivals(e, 1, d, true)
	if err != nil {
		return err
	}
	f, err := server.ReadV2Frame(bytes.NewReader(frame), 0)
	if err != nil {
		return err
	}
	got, _, err := server.DecodeV2Arrivals(f.Payload)
	if err != nil {
		return err
	}
	got.Source = d.Source
	return r.IngestDelivery(ctx, got)
}

// TestRoutedRowsMatchEmbedded: a chunk whose fields are out of order and
// repeat a name stores the same rows embedded, through one server and
// through a 3-shard router, which splits its arrivals and writes their
// fields out again in their order: every cell of SELECT * the same kind
// and value, and the repeated name holding its last value everywhere.
func TestRoutedRowsMatchEmbedded(t *testing.T) {
	ctx := context.Background()
	db, err := scdb.Open(scdb.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	one, err := client.Dial(startShardServer(t, scdb.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	c := newTestCluster(t, 3)
	paths := []struct {
		name   string
		ingest func(curate.Delivery) error
		query  func(string) (*scdb.Rows, error)
	}{
		{"embedded", func(d curate.Delivery) error { return db.IngestDelivery(ctx, d) }, db.Query},
		{"one server", func(d curate.Delivery) error { _, err := one.IngestDelivery(ctx, d, 0); return err }, one.Query},
		{"a 3-shard router", func(d curate.Delivery) error { _, err := c.rc.IngestDelivery(ctx, d, 2); return err }, c.rc.Query},
	}
	var want string
	for _, p := range paths {
		if err := p.ingest(awkwardDelivery()); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		rows, err := p.query("SELECT * FROM awkward ORDER BY _key")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got := describe(rows, false)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s stores other rows\n--- got ---\n%s\n--- embedded ---\n%s", p.name, got, want)
		}
		rows, err = p.query("SELECT name, zeta FROM awkward ORDER BY zeta")
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if got, want := render(rows), "name|zeta\nlast 0|z0\nlast 1|z1\nlast 2|z2\n"; got != want {
			t.Errorf("%s: the repeated name reads %q, want its last value %q", p.name, got, want)
		}
	}
}

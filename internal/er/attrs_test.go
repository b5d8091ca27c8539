package er

import "scdb/internal/model"

// awkwardNames are names and texts a codec can get wrong: HTML characters,
// quotes, control characters, the JavaScript line separators, invalid
// UTF-8, the empty string, and ordinary and non-ASCII names around them.
var awkwardNames = []string{
	"name", "Name", "a<b>&c", `q"uote`, `back\slash`, "tab\tnl\n", "ls\u2028ps\u2029",
	"bad\xffutf8", "ü", "日本", "", "z",
}

// AwkwardResolver indexes one entity per awkward name — in its source, as
// an attribute name and inside its texts — and one entity without
// attributes, under the given blocking mode. The shared texts make its
// digests merge. The digest codec tests in package er_test pull their
// batches from it.
func AwkwardResolver(mode BlockingMode) *Resolver {
	r := NewResolver(Config{Blocking: mode})
	for i, name := range awkwardNames {
		r.Add(ent(model.EntityID(i+1), "src"+name, map[string]string{
			name:    "Methotrexate <Trexall> & co",
			"label": "sensor unit 00" + name,
			"other": "Ünïcödé \xff text",
		}))
	}
	r.Add(&model.Entity{ID: 99, Key: "bare", Source: "s", Attrs: model.Record{}})
	return r
}

// RaceEnabled tells package er_test whether the race detector is on.
const RaceEnabled = raceEnabled

package store

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"grophecy/internal/errdefs"
)

// FuzzSnapshotDecode holds the snapshot codec to its contract under
// arbitrary input: Decode never panics, never returns a partially
// valid entry alongside an error, and classifies every failure as
// either corrupt (errdefs.ErrCorruptSnapshot) or stale — and a
// successful decode must survive an Encode/Decode round trip bit for
// bit. `make fuzz-short` runs this continuously; the seed corpus
// always runs under plain `go test`.
func FuzzSnapshotDecode(f *testing.F) {
	good, err := Encode(entry("fx5600-pcie1", 42), testHash)
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(good)
	f.Add([]byte(magic + "\n"))
	f.Add([]byte(magic + "\nsha256:00\n{}"))
	f.Add([]byte("grophecy-snap v9\nsha256:00\n{}"))
	f.Add(good[:len(good)/2])
	f.Add([]byte(strings.Repeat("\n", 64)))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Decode(data, testHash)
		if err != nil {
			if !reflect.DeepEqual(e, Entry{}) {
				t.Errorf("Decode returned a non-zero entry alongside error %v", err)
			}
			return
		}
		// Valid input: the entry must re-encode and decode to itself.
		out, err := Encode(e, testHash)
		if err != nil {
			t.Fatalf("re-encoding a decoded entry failed: %v", err)
		}
		again, err := Decode(out, testHash)
		if err != nil {
			t.Fatalf("re-decoding a re-encoded entry failed: %v", err)
		}
		if !reflect.DeepEqual(again, e) {
			t.Errorf("round trip diverged: %+v vs %+v", again, e)
		}
		if errors.Is(err, errdefs.ErrCorruptSnapshot) {
			t.Error("nil error classified as corrupt")
		}
	})
}

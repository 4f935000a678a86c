package trace

import (
	"net/http"
	"strings"
	"testing"
)

const validTP = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"

func TestParseTraceparentValid(t *testing.T) {
	sc, err := ParseTraceparent(validTP)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", validTP, err)
	}
	if sc.TraceID.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace ID = %s", sc.TraceID)
	}
	if sc.SpanID.String() != "00f067aa0ba902b7" {
		t.Fatalf("span ID = %s", sc.SpanID)
	}
	if !sc.Sampled {
		t.Fatalf("sampled bit not parsed")
	}
	if got := FormatTraceparent(sc); got != validTP {
		t.Fatalf("round trip = %q, want %q", got, validTP)
	}
}

func TestParseTraceparentFutureVersion(t *testing.T) {
	// A future version may append dash-separated fields; the 00-shaped
	// prefix must still parse.
	for _, in := range []string{
		strings.Replace(validTP, "00-", "01-", 1),
		strings.Replace(validTP, "00-", "01-", 1) + "-extrafield",
	} {
		sc, err := ParseTraceparent(in)
		if err != nil {
			t.Fatalf("ParseTraceparent(%q): %v", in, err)
		}
		if !sc.IsValid() {
			t.Fatalf("ParseTraceparent(%q): invalid context", in)
		}
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	cases := map[string]string{
		"empty":               "",
		"short":               "00-abc",
		"bad delimiters":      strings.Replace(validTP, "-", "_", 3),
		"uppercase hex":       strings.ToUpper(validTP),
		"version ff":          strings.Replace(validTP, "00-", "ff-", 1),
		"zero trace id":       "00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"zero span id":        "00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"v00 trailing":        validTP + "-extra",
		"trailing not dashed": strings.Replace(validTP, "00-", "01-", 1) + "x",
		"non-hex trace id":    "00-4bf92f3577b34da6a3ce929d0e0e47zz-00f067aa0ba902b7-01",
		"non-hex flags":       "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz",
	}
	for name, in := range cases {
		if _, err := ParseTraceparent(in); err == nil {
			t.Errorf("%s: ParseTraceparent(%q) accepted", name, in)
		}
	}
}

func TestExtractInjectRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	h := http.Header{}
	Inject(h, sc)
	got, ok := Extract(h)
	if !ok || got != sc {
		t.Fatalf("Extract after Inject = %+v %v, want %+v", got, ok, sc)
	}

	// Malformed and absent headers extract as absent.
	for _, v := range []string{"", "garbage", strings.ToUpper(validTP)} {
		h := http.Header{}
		if v != "" {
			h.Set(TraceparentHeader, v)
		}
		if _, ok := Extract(h); ok {
			t.Errorf("Extract(%q) accepted", v)
		}
	}

	// Invalid contexts are not injected.
	h = http.Header{}
	Inject(h, SpanContext{})
	if h.Get(TraceparentHeader) != "" {
		t.Fatalf("Inject wrote an invalid context")
	}
}

func TestFormatTraceparentUnsampled(t *testing.T) {
	sc, err := ParseTraceparent(strings.TrimSuffix(validTP, "01") + "00")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sampled {
		t.Fatalf("flags 00 parsed as sampled")
	}
	if got := FormatTraceparent(sc); !strings.HasSuffix(got, "-00") {
		t.Fatalf("unsampled format = %q", got)
	}
}

// FuzzTraceparent asserts the parser never panics, and that every
// accepted value survives a format/reparse round trip.
func FuzzTraceparent(f *testing.F) {
	f.Add(validTP)
	f.Add("")
	f.Add("00-00000000000000000000000000000000-0000000000000000-00")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra")
	f.Add(strings.ToUpper(validTP))
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := ParseTraceparent(in)
		if err != nil {
			return
		}
		if !sc.IsValid() {
			t.Fatalf("accepted invalid context from %q", in)
		}
		again, err := ParseTraceparent(FormatTraceparent(sc))
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", in, err)
		}
		if again != sc {
			t.Fatalf("round trip of %q: %+v != %+v", in, again, sc)
		}
	})
}

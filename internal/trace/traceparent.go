// W3C Trace Context: trace and span identifiers, and parsing and
// rendering of the `traceparent` header
// (https://www.w3.org/TR/trace-context/), the wire format the daemon
// uses to join and continue distributed traces.
package trace

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id TraceID) IsZero() bool { return id == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// SpanID is the 8-byte W3C parent/span identifier.
type SpanID [8]byte

// IsZero reports whether the ID is the invalid all-zero value.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// SpanContext is the propagated portion of a trace: the tuple a W3C
// traceparent header carries.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled is the sampled bit of the trace-flags field.
	Sampled bool
}

// IsValid reports whether both IDs are non-zero, the W3C validity
// rule.
func (sc SpanContext) IsValid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// idState seeds the process-local ID generator. IDs only need to be
// unique, not cryptographically unpredictable; one crypto/rand read
// at startup plus a splitmix64 walk keeps ID generation off the
// kernel's entropy pool on the request path.
var idState atomic.Uint64

func init() {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(seed[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

// nextID draws the next 64-bit ID via a splitmix64 step.
func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID returns a fresh non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:8], nextID())
		binary.BigEndian.PutUint64(id[8:], nextID())
	}
	return id
}

// NewSpanID returns a fresh non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		binary.BigEndian.PutUint64(id[:], nextID())
	}
	return id
}

// TraceparentHeader is the canonical header name (HTTP header names
// are case-insensitive; the spec spells it lowercase).
const TraceparentHeader = "traceparent"

// FormatTraceparent renders a version-00 traceparent value:
// 00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>.
func FormatTraceparent(sc SpanContext) string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a traceparent header value. Per the spec it
// accepts future versions (any two lowercase hex digits except "ff")
// as long as the version-00 prefix fields are well-formed, requires
// lowercase hex throughout, and rejects all-zero trace or span IDs.
func ParseTraceparent(s string) (SpanContext, error) {
	var sc SpanContext
	// version(2) - traceid(32) - spanid(16) - flags(2) = 55 bytes
	// minimum; future versions may append "-extra" fields.
	if len(s) < 55 {
		return sc, fmt.Errorf("trace: traceparent too short (%d bytes)", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return sc, fmt.Errorf("trace: traceparent delimiters malformed")
	}
	version, traceID, spanID, flags := s[0:2], s[3:35], s[36:52], s[53:55]
	if !isLowerHex(version) || version == "ff" {
		return sc, fmt.Errorf("trace: invalid traceparent version %q", version)
	}
	if version == "00" {
		if len(s) != 55 {
			return sc, fmt.Errorf("trace: version 00 traceparent has trailing bytes")
		}
	} else if len(s) > 55 && s[55] != '-' {
		return sc, fmt.Errorf("trace: traceparent trailing bytes not dash-separated")
	}
	if !isLowerHex(traceID) {
		return sc, fmt.Errorf("trace: trace-id not lowercase hex")
	}
	if !isLowerHex(spanID) {
		return sc, fmt.Errorf("trace: parent-id not lowercase hex")
	}
	if !isLowerHex(flags) {
		return sc, fmt.Errorf("trace: trace-flags not lowercase hex")
	}
	if _, err := hex.Decode(sc.TraceID[:], []byte(traceID)); err != nil {
		return sc, fmt.Errorf("trace: trace-id: %w", err)
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(spanID)); err != nil {
		return sc, fmt.Errorf("trace: parent-id: %w", err)
	}
	if sc.TraceID.IsZero() {
		return SpanContext{}, fmt.Errorf("trace: trace-id is all zero")
	}
	if sc.SpanID.IsZero() {
		return SpanContext{}, fmt.Errorf("trace: parent-id is all zero")
	}
	var fb [1]byte
	if _, err := hex.Decode(fb[:], []byte(flags)); err != nil {
		return SpanContext{}, fmt.Errorf("trace: trace-flags: %w", err)
	}
	sc.Sampled = fb[0]&0x01 != 0
	return sc, nil
}

// isLowerHex reports whether s is entirely lowercase hex digits.
func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return len(s) > 0
}

// Extract pulls a valid span context from an inbound header set,
// reporting whether one was present and well-formed. Malformed
// headers are treated as absent, per the spec's restart rule.
func Extract(h http.Header) (SpanContext, bool) {
	v := strings.TrimSpace(h.Get(TraceparentHeader))
	if v == "" {
		return SpanContext{}, false
	}
	sc, err := ParseTraceparent(v)
	if err != nil || !sc.IsValid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Inject writes the span context as a traceparent header. Invalid
// contexts are not written.
func Inject(h http.Header, sc SpanContext) {
	if !sc.IsValid() {
		return
	}
	h.Set(TraceparentHeader, FormatTraceparent(sc))
}

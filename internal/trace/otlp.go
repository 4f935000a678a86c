// OTLP/JSON export: a tracer's span tree rendered in wall time as one
// ExportTraceServiceRequest document (resourceSpans → scopeSpans →
// spans), plus the sinks the daemon ships those documents through —
// an NDJSON append file and an asynchronous OTLP/HTTP endpoint.
package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"grophecy/internal/metrics"
)

var (
	mExports = metrics.Default.MustCounter("telemetry_export_total",
		"Trace trees handed to OTLP sinks.")
	mExportErrors = metrics.Default.MustCounter("telemetry_export_errors_total",
		"Trace exports that failed (write or POST error).")
	mExportDropped = metrics.Default.MustCounter("telemetry_export_dropped_total",
		"Trace exports dropped because a sink's queue was full.")
)

// otlpKeyValue is one attribute in OTLP/JSON shape. The pipeline
// pre-formats all attribute values as strings, so only stringValue is
// ever populated.
type otlpKeyValue struct {
	Key   string `json:"key"`
	Value struct {
		StringValue string `json:"stringValue"`
	} `json:"value"`
}

func otlpAttr(key, value string) otlpKeyValue {
	kv := otlpKeyValue{Key: key}
	kv.Value.StringValue = value
	return kv
}

// otlpSpan is one span in OTLP/JSON shape. Fixed64 nanosecond
// timestamps are encoded as decimal strings, per the OTLP JSON
// mapping of protobuf fixed64.
type otlpSpan struct {
	TraceID           string         `json:"traceId"`
	SpanID            string         `json:"spanId"`
	ParentSpanID      string         `json:"parentSpanId,omitempty"`
	Name              string         `json:"name"`
	Kind              int            `json:"kind"`
	StartTimeUnixNano string         `json:"startTimeUnixNano"`
	EndTimeUnixNano   string         `json:"endTimeUnixNano"`
	Attributes        []otlpKeyValue `json:"attributes,omitempty"`
}

// OTLP span kinds (enum values from the OTLP trace proto).
const (
	otlpKindInternal = 1
	otlpKindServer   = 2
)

// otlpDocument is the ExportTraceServiceRequest JSON layout.
type otlpDocument struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

// OTLP renders the whole tree — service, run and simulated spans —
// as one OTLP/JSON document in wall time. Open spans are exported as
// ending at the current clock. A nil or released tracer returns an
// empty document.
func (t *Tracer) OTLP() ([]byte, error) {
	doc := otlpDocument{}
	if t != nil {
		var spans []otlpSpan
		traceID := t.traceID.String()
		t.mu.Lock()
		t.eachLocked(func(s *Span) {
			sp := otlpSpan{
				TraceID:           traceID,
				SpanID:            s.id.String(),
				Name:              s.name,
				Kind:              otlpKindInternal,
				StartTimeUnixNano: strconv.FormatInt(t.epoch.Add(s.wallStart).UnixNano(), 10),
				EndTimeUnixNano:   strconv.FormatInt(t.epoch.Add(s.wallStart+s.durationLocked()).UnixNano(), 10),
			}
			switch {
			case s.parent != nil:
				sp.ParentSpanID = s.parent.id.String()
			case !t.remote.IsZero():
				sp.ParentSpanID = t.remote.String()
				sp.Kind = otlpKindServer
			default:
				sp.Kind = otlpKindServer
			}
			for _, a := range s.attrs {
				sp.Attributes = append(sp.Attributes, otlpAttr(a.Key, a.Value))
			}
			spans = append(spans, sp)
		})
		var service string
		if t.root != nil {
			service = t.root.name
		}
		t.mu.Unlock()

		if spans != nil {
			doc.ResourceSpans = []otlpResourceSpans{{
				Resource: otlpResource{
					Attributes: []otlpKeyValue{otlpAttr("service.name", service)},
				},
				ScopeSpans: []otlpScopeSpans{{
					Scope: otlpScope{Name: "grophecy/telemetry"},
					Spans: spans,
				}},
			}}
		}
	}
	return json.Marshal(doc)
}

// Sink receives finished trace trees. Export must not block the
// request path; Close flushes and releases resources.
type Sink interface {
	Export(t *Tracer)
	Close() error
}

// FileSink appends one OTLP/JSON document per line (NDJSON) to a
// file — the simplest durable export, greppable and replayable into
// any OTLP collector.
type FileSink struct {
	mu sync.Mutex
	f  *os.File
}

// NewFileSink opens (creating or appending) the NDJSON trace file.
func NewFileSink(path string) (*FileSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("trace: opening OTLP file: %w", err)
	}
	return &FileSink{f: f}, nil
}

// Export appends the tracer's OTLP document as one line.
func (s *FileSink) Export(t *Tracer) {
	if s == nil || t == nil {
		return
	}
	data, err := t.OTLP()
	if err != nil {
		mExportErrors.Inc()
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return
	}
	data = append(data, '\n')
	if _, err := s.f.Write(data); err != nil {
		mExportErrors.Inc()
		return
	}
	mExports.Inc()
}

// Close syncs and closes the file. Further Exports are dropped.
func (s *FileSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// HTTPSink POSTs OTLP/JSON documents to an OTLP/HTTP traces endpoint
// from a background goroutine. The queue is bounded; when the
// collector cannot keep up, exports are counted as dropped rather
// than blocking or buffering without bound.
type HTTPSink struct {
	url    string
	client *http.Client
	queue  chan []byte
	done   chan struct{}
}

// NewHTTPSink starts the sink's background shipper. url should be
// the collector's traces endpoint (e.g. http://host:4318/v1/traces).
func NewHTTPSink(url string) *HTTPSink {
	s := &HTTPSink{
		url:    url,
		client: &http.Client{Timeout: 5 * time.Second},
		queue:  make(chan []byte, 64),
		done:   make(chan struct{}),
	}
	go s.run()
	return s
}

func (s *HTTPSink) run() {
	defer close(s.done)
	for data := range s.queue {
		req, err := http.NewRequestWithContext(context.Background(),
			http.MethodPost, s.url, bytes.NewReader(data))
		if err != nil {
			mExportErrors.Inc()
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := s.client.Do(req)
		if err != nil {
			mExportErrors.Inc()
			continue
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			mExportErrors.Inc()
			continue
		}
		mExports.Inc()
	}
}

// Export enqueues the tracer's OTLP document, dropping it when the
// queue is full.
func (s *HTTPSink) Export(t *Tracer) {
	if s == nil || t == nil {
		return
	}
	data, err := t.OTLP()
	if err != nil {
		mExportErrors.Inc()
		return
	}
	select {
	case s.queue <- data:
	default:
		mExportDropped.Inc()
	}
}

// Close drains the queue and stops the shipper.
func (s *HTTPSink) Close() error {
	close(s.queue)
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
	}
	return nil
}

package trace

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func buildTree(t *testing.T, parent SpanContext) *Tracer {
	t.Helper()
	tr := newFakeRequest("svc", parent)
	ctx := With(context.Background(), tr)
	ctx1, s1 := StartWall(ctx, "queue.wait", Int("queue_depth", 2))
	_, s2 := StartWall(ctx1, "cal.compute")
	s2.End()
	s1.End()
	tr.Close()
	return tr
}

func TestOTLPShape(t *testing.T) {
	tr := buildTree(t, SpanContext{})
	data, err := tr.OTLP()
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("OTLP output not JSON: %v", err)
	}
	if len(doc.ResourceSpans) != 1 || len(doc.ResourceSpans[0].ScopeSpans) != 1 {
		t.Fatalf("document shape: %s", data)
	}
	res := doc.ResourceSpans[0]
	if len(res.Resource.Attributes) != 1 || res.Resource.Attributes[0].Key != "service.name" ||
		res.Resource.Attributes[0].Value.StringValue != "svc" {
		t.Fatalf("resource attributes: %+v", res.Resource.Attributes)
	}
	spans := res.ScopeSpans[0].Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	traceID := tr.TraceID().String()
	byName := map[string]otlpSpan{}
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Fatalf("span %q trace ID %s, want %s", s.Name, s.TraceID, traceID)
		}
		if s.StartTimeUnixNano == "" || s.EndTimeUnixNano == "" {
			t.Fatalf("span %q missing timestamps", s.Name)
		}
		byName[s.Name] = s
	}
	root := byName["svc"]
	if root.Kind != otlpKindServer || root.ParentSpanID != "" {
		t.Fatalf("root span: %+v", root)
	}
	if byName["queue.wait"].ParentSpanID != root.SpanID {
		t.Fatalf("queue.wait parent = %s, want root %s", byName["queue.wait"].ParentSpanID, root.SpanID)
	}
	if byName["cal.compute"].ParentSpanID != byName["queue.wait"].SpanID {
		t.Fatalf("cal.compute parent = %s", byName["cal.compute"].ParentSpanID)
	}
	if attrs := byName["queue.wait"].Attributes; len(attrs) != 1 ||
		attrs[0].Key != "queue_depth" || attrs[0].Value.StringValue != "2" {
		t.Fatalf("queue.wait attrs: %+v", attrs)
	}
}

func TestOTLPRemoteParentOnRoot(t *testing.T) {
	parent := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID(), Sampled: true}
	tr := buildTree(t, parent)
	data, err := tr.OTLP()
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, s := range doc.ResourceSpans[0].ScopeSpans[0].Spans {
		if s.TraceID != parent.TraceID.String() {
			t.Fatalf("span %q trace ID %s, want inbound %s", s.Name, s.TraceID, parent.TraceID)
		}
		if s.Name == "svc" && s.ParentSpanID != parent.SpanID.String() {
			t.Fatalf("root parent = %s, want remote %s", s.ParentSpanID, parent.SpanID)
		}
	}
}

func TestOTLPNilTracer(t *testing.T) {
	var tr *Tracer
	data, err := tr.OTLP()
	if err != nil {
		t.Fatal(err)
	}
	var doc otlpDocument
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.ResourceSpans) != 0 {
		t.Fatalf("nil tracer exported spans: %s", data)
	}
}

func TestFileSinkAppendsNDJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "otlp.ndjson")
	sink, err := NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	a, b := buildTree(t, SpanContext{}), buildTree(t, SpanContext{})
	sink.Export(a)
	sink.Export(b)
	sink.Export(nil) // dropped, not written
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.Export(a) // after Close: dropped, no panic

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var traceIDs []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var doc otlpDocument
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("line not OTLP JSON: %v", err)
		}
		traceIDs = append(traceIDs, doc.ResourceSpans[0].ScopeSpans[0].Spans[0].TraceID)
	}
	if len(traceIDs) != 2 || traceIDs[0] != a.TraceID().String() || traceIDs[1] != b.TraceID().String() {
		t.Fatalf("file trace IDs = %v, want [%s %s]", traceIDs, a.TraceID(), b.TraceID())
	}
}

func TestHTTPSinkPosts(t *testing.T) {
	got := make(chan string, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var doc otlpDocument
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Errorf("bad body: %v", err)
		}
		got <- doc.ResourceSpans[0].ScopeSpans[0].Spans[0].TraceID
	}))
	defer srv.Close()

	sink := NewHTTPSink(srv.URL)
	tr := buildTree(t, SpanContext{})
	sink.Export(tr)
	select {
	case id := <-got:
		if id != tr.TraceID().String() {
			t.Fatalf("posted trace ID %s, want %s", id, tr.TraceID())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no POST received")
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

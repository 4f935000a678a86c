package obs

import (
	"context"
	"sync"
	"testing"
)

func TestEventInsertionOrderAndReplace(t *testing.T) {
	e := NewEvent()
	e.Set("trace_id", "abc")
	e.Set("tenant", "anon")
	e.Set("status", 200)
	e.Set("tenant", "team-a") // replace keeps first-insertion position

	attrs := e.Attrs()
	if len(attrs) != 3 {
		t.Fatalf("got %d attrs, want 3: %v", len(attrs), attrs)
	}
	wantKeys := []string{"trace_id", "tenant", "status"}
	for i, k := range wantKeys {
		if attrs[i].Key != k {
			t.Fatalf("attr %d key = %q, want %q (%v)", i, attrs[i].Key, k, attrs)
		}
	}
	if attrs[1].Value.String() != "team-a" {
		t.Fatalf("tenant = %q, want replaced value", attrs[1].Value)
	}
	if attrs[2].Value.Int64() != 200 {
		t.Fatalf("status = %v", attrs[2].Value)
	}
}

func TestNilEventIsSafe(t *testing.T) {
	var e *Event
	e.Set("k", "v")
	if got := e.Attrs(); got != nil {
		t.Fatalf("nil event attrs = %v", got)
	}
}

func TestEventContextRoundTrip(t *testing.T) {
	if EventFrom(context.Background()) != nil {
		t.Fatalf("empty context carries an event")
	}
	e := NewEvent()
	ctx := WithEvent(context.Background(), e)
	if EventFrom(ctx) != e {
		t.Fatalf("event not carried by context")
	}
}

func TestEventConcurrentSet(t *testing.T) {
	e := NewEvent()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				e.Set("shared", n)
				e.Set(string(rune('a'+n)), j)
			}
		}(i)
	}
	wg.Wait()
	if len(e.Attrs()) != 9 {
		t.Fatalf("got %d attrs, want 9", len(e.Attrs()))
	}
}

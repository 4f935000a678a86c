package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

func TestChromeJSONRoundTrip(t *testing.T) {
	tr := New("grophecy")
	ctx := With(context.Background(), tr)
	kctx, k := Start(ctx, "kernel", String("variant", "tiled"))
	_, m := Start(kctx, "measure")
	m.SetAttr(Int("samples", 10))
	m.End()
	k.Advance(0.25)
	k.End()
	tr.Close()

	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	// Metadata event + root + kernel + measure.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Phase != "M" {
		t.Fatalf("first event phase = %q, want M", doc.TraceEvents[0].Phase)
	}
	root := doc.TraceEvents[1]
	if root.Name != "grophecy" || root.Phase != "X" || root.Ts != 0 || root.Dur != 0.25e6 {
		t.Fatalf("root event = %+v", root)
	}
	kernel := doc.TraceEvents[2]
	if kernel.Args["variant"] != "tiled" {
		t.Fatalf("kernel args = %v", kernel.Args)
	}
	measure := doc.TraceEvents[3]
	if measure.Args["samples"] != "10" || measure.Dur != 0 {
		t.Fatalf("measure event = %+v", measure)
	}
}

// buildFromOps turns an opcode string into a well-formed span tree:
// 's' starts a child of the innermost open span, 'e' ends it, 'a'
// advances it, anything else is ignored. The construction maintains a
// stack, so the resulting tree is well-formed by construction —
// exactly the shape the exporter must handle for arbitrary inputs.
func buildFromOps(ops []byte) (*Tracer, int) {
	tr := New("fuzz-root")
	stack := []*Span{tr.Root()}
	spans := 1
	for i, op := range ops {
		switch op % 5 {
		case 0, 1:
			top := stack[len(stack)-1]
			s := tr.startChild(top, fmt.Sprintf("s%d", i), kindSim, []Attr{Int("i", int64(i))})
			stack = append(stack, s)
			spans++
		case 2:
			if len(stack) > 1 {
				stack[len(stack)-1].End()
				stack = stack[:len(stack)-1]
			}
		case 3:
			stack[len(stack)-1].Advance(float64(op) / 255)
		case 4:
			stack[len(stack)-1].SetAttr(String("k", fmt.Sprintf("v%d", op)))
		}
	}
	for len(stack) > 1 {
		stack[len(stack)-1].End()
		stack = stack[:len(stack)-1]
	}
	tr.Close()
	return tr, spans
}

func FuzzChromeJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 2})
	f.Add([]byte{0, 0, 0, 3, 2, 2, 1, 4, 2})
	f.Add([]byte("ssaaee"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		tr, spans := buildFromOps(ops)
		if err := tr.Check(); err != nil {
			t.Fatalf("stack-built tree must be well-formed: %v", err)
		}
		data, err := tr.ChromeJSON()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		var doc ChromeTrace
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("round-trip unmarshal: %v", err)
		}
		if doc.DisplayTimeUnit != "ms" {
			t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
		}
		if len(doc.TraceEvents) != spans+1 {
			t.Fatalf("got %d events, want %d spans + 1 metadata", len(doc.TraceEvents), spans)
		}
		for i, ev := range doc.TraceEvents {
			if ev.Name == "" {
				t.Fatalf("event %d has no name", i)
			}
			if ev.Phase != "X" && ev.Phase != "M" {
				t.Fatalf("event %d phase = %q", i, ev.Phase)
			}
			if ev.Pid != 1 || ev.Tid != 1 {
				t.Fatalf("event %d pid/tid = %d/%d", i, ev.Pid, ev.Tid)
			}
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("event %d has negative time: ts=%g dur=%g", i, ev.Ts, ev.Dur)
			}
		}
	})
}

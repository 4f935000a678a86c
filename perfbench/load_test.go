package main

import (
	"strings"
	"testing"
)

func TestSummarizeReportsSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200 … 1, unsorted on purpose
	}
	d := summarize(xs)
	if d.n != 200 || d.p50 != 100 || d.p99 != 198 || d.mean != 100.5 {
		t.Errorf("summarize = %+v, want n=200 p50=100 p99=198 mean=100.5", d)
	}
	if xs[0] != 200 {
		t.Error("summarize sorted its input in place")
	}
	if d := summarize(nil); d.n != 0 {
		t.Errorf("empty sample: n=%d", d.n)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCheckBatch(t *testing.T) {
	row := func(id, deps string) string {
		return `{"index":0,"id":"` + id + `"` + deps + `,"target":"t","seed":1,"status":200,"report":{"x":1}}`
	}
	summary := `{"succeeded":2,"failed":0,"skipped":0}`
	good := strings.Join([]string{row("a", ""), row("b", `,"dependsOn":["a"]`), summary}, "\n") + "\n"
	rows, err := checkBatch([]byte(good), 2, true)
	if err != nil || len(rows) != 2 || string(rows[1].Report) != `{"x":1}` {
		t.Fatalf("good stream: rows=%+v err=%v", rows, err)
	}
	for name, body := range map[string]string{
		"child first": strings.Join([]string{row("b", `,"dependsOn":["a"]`), row("a", ""), summary}, "\n"),
		"short":       strings.Join([]string{row("a", ""), summary}, "\n"),
		"row error":   strings.Join([]string{row("a", ""), strings.Replace(row("b", ""), `"status":200`, `"status":424,"error":"skipped"`, 1), summary}, "\n"),
		"bad summary": strings.Join([]string{row("a", ""), row("b", ""), `{"succeeded":1,"failed":1,"skipped":0}`}, "\n"),
	} {
		if _, err := checkBatch([]byte(body), 2, false); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

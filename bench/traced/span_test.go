package traced

import (
	"testing"
	"time"
)

// Self time is a span's duration minus the part of its interval its
// children cover. A child that reaches past its parent (the receive
// path, which ends on another goroutine) counts only for the overlap,
// and a grandchild is its parent's business, not its grandparent's.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{Name: "round", Start: 0, End: 100, Parent: -1},    // 0
		{Name: "tick", Start: 10, End: 40, Parent: 0},      // 1
		{Name: "sample", Start: 15, End: 20, Parent: 1},    // 2
		{Name: "send", Start: 40, End: 70, Parent: 0},      // 3
		{Name: "compress", Start: 45, End: 60, Parent: 3},  // 4
		{Name: "recv_path", Start: 70, End: 95, Parent: 3}, // 5: starts where its parent ends
		{Name: "straddle", Start: 65, End: 80, Parent: 3},  // 6: half inside
		{Name: "tick", Start: 80, End: 90, Parent: 0},      // 7
	}
	got := SelfTimes(spans)
	want := map[string]Totals{
		"round":     {Count: 1, Total: 100, Self: 100 - 30 - 30 - 10},
		"tick":      {Count: 2, Total: 40, Self: 40 - 5},
		"sample":    {Count: 1, Total: 5, Self: 5},
		"send":      {Count: 1, Total: 30, Self: 30 - 15 - 0 - 5},
		"compress":  {Count: 1, Total: 15, Self: 15},
		"recv_path": {Count: 1, Total: 25, Self: 25},
		"straddle":  {Count: 1, Total: 15, Self: 15},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("got %d names, want %d", len(got), len(want))
	}
}

func TestTracerNestsAndSkipsWhenOff(t *testing.T) {
	tr := NewTracer()
	if id := tr.Begin("warmup", 0); id != -1 {
		t.Fatalf("Begin with recording off returned %d", id)
	}
	tr.End(-1)
	tr.Record(true)
	outer := tr.Begin("outer", 7)
	inner := tr.Begin("inner", 7)
	time.Sleep(time.Millisecond)
	tr.End(inner)
	sibling := tr.Begin("sibling", 7)
	tr.End(sibling)
	tr.End(outer)
	tr.Add(Span{Name: "added", Start: 1, End: 2, Parent: outer})
	s := tr.Spans()
	if len(s) != 4 {
		t.Fatalf("recorded %d spans, want 4", len(s))
	}
	if s[outer].Parent != -1 || s[inner].Parent != outer || s[sibling].Parent != outer {
		t.Errorf("parents: outer %d, inner %d, sibling %d", s[outer].Parent, s[inner].Parent, s[sibling].Parent)
	}
	if s[inner].End-s[inner].Start < int64(time.Millisecond) || s[outer].End < s[sibling].End {
		t.Errorf("span times do not nest: %+v", s)
	}
	if s[inner].Trace != 7 {
		t.Errorf("trace id %d, want 7", s[inner].Trace)
	}
}

func TestSpanOverheadIsSmallAndPositive(t *testing.T) {
	ns := SpanOverhead()
	if ns <= 0 || ns > 5000 {
		t.Errorf("an empty span costs %v ns", ns)
	}
}

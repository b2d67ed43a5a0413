// Package traced is gossipbench's from-outside tracer: a single
// goroutine drives the same state machines, codec and UDP transports
// the real runtime uses, in lockstep, and wraps a span around every call
// into a layer. Nothing inside the program is instrumented; every
// import of adaptivegossip/internal/... sits in one adapt_<layer>.go
// file, so a refactor of a layer has one small file to re-point.
package traced

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call into a layer. Start and End are nanoseconds
// since the tracer was created. Parent is the index of the span that
// caused it, -1 for a root. Trace groups spans: a publish span carries
// its event number, the spans that move whole messages (a message holds
// many events) carry the gossip round they belong to.
type Span struct {
	Name   string
	Start  int64
	End    int64
	Parent int32
	Trace  uint64
}

// Tracer keeps spans in memory until Write. All of its methods belong to
// the driver goroutine; Begin and End nest like calls do.
type Tracer struct {
	base  time.Time
	on    bool
	spans []Span
	stack []int32
}

func NewTracer() *Tracer {
	return &Tracer{base: time.Now()}
}

// Record switches span recording on or off (warm-up rounds run with it
// off). It must not be called inside an open span.
func (t *Tracer) Record(on bool) { t.on = on }

func (t *Tracer) now() int64 { return int64(time.Since(t.base)) }

// Begin opens a span under the innermost open one and returns its
// index, or -1 while recording is off.
func (t *Tracer) Begin(name string, trace uint64) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{Name: name, Parent: parent, Trace: trace})
	t.stack = append(t.stack, id)
	t.spans[id].Start = t.now()
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// Add records a span that was timed elsewhere (the receive path ends on
// another goroutine).
func (t *Tracer) Add(s Span) {
	if t.on {
		t.spans = append(t.spans, s)
	}
}

// Spans returns what was recorded.
func (t *Tracer) Spans() []Span { return t.spans }

// Totals are one span name's aggregate: how many, their summed
// duration, and their summed self time.
type Totals struct {
	Count int
	Total time.Duration
	Self  time.Duration
}

// SelfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval that its child spans cover;
// a child reaching outside its parent counts only for the overlap.
func SelfTimes(spans []Span) map[string]Totals {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		if overlap := min(s.End, p.End) - max(s.Start, p.Start); overlap > 0 {
			covered[s.Parent] += overlap
		}
	}
	out := map[string]Totals{}
	for i, s := range spans {
		t := out[s.Name]
		t.Count++
		t.Total += time.Duration(s.End - s.Start)
		t.Self += time.Duration(s.End - s.Start - covered[i])
		out[s.Name] = t
	}
	return out
}

// SpanOverhead calibrates what an empty span costs, in nanoseconds.
func SpanOverhead() float64 {
	const n = 200_000
	t := NewTracer()
	t.Record(true)
	t.spans = make([]Span, 0, n)
	begin := time.Now()
	for i := 0; i < n; i++ {
		t.End(t.Begin("empty", 0))
	}
	return float64(time.Since(begin).Nanoseconds()) / n
}

// Write stores the spans as JSON under dir and returns the file's path.
func (t *Tracer) Write(dir, workload string, seed uint64, overheadNs float64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"span_overhead_ns\":%.1f,\"unit\":\"ns since trace start\",\"spans\":[\n", workload, seed, overheadNs)
	for i, s := range t.spans {
		sep := ","
		if i == len(t.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "{\"id\":%d,\"name\":%q,\"start\":%d,\"end\":%d,\"parent\":%d,\"trace\":%d}%s\n", i, s.Name, s.Start, s.End, s.Parent, s.Trace, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

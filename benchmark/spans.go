package main

// Spans recorded by the benchmark's own files around each call into a
// layer. They are kept in memory and written out when the run ends. Spans
// inside the program are a later change (ROADMAP: internal/trace carrying
// host nanoseconds); until then a layer's in-program time is estimated by
// the outside probes and the rest is named scalparc.self_s.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

type span struct {
	ID     int
	Parent int // -1 for a root
	Layer  string
	Name   string
	Iter   int // iteration or request number the span belongs to
	Thread int // 0 is the run's own goroutine; serve clients are 1..procs
	Start  time.Duration
	End    time.Duration
}

// tracer records spans when on and costs one branch when off, so the same
// workload code serves the untraced run the end-to-end metrics come from.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
	stack []int // open spans of thread 0
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// do runs f inside a span on the run's own goroutine; the enclosing open
// span becomes the parent.
func (t *tracer) do(layer, name string, iter int, f func()) {
	if !t.on {
		f()
		return
	}
	t.mu.Lock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Layer: layer, Name: name, Iter: iter, Start: time.Since(t.epoch)})
	t.stack = append(t.stack, id)
	t.mu.Unlock()

	f()

	t.mu.Lock()
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
	t.mu.Unlock()
}

// current returns the innermost open span of the run's own goroutine, the
// parent that spans added from other goroutines hang under.
func (t *tracer) current() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// add records a finished span measured on another goroutine.
func (t *tracer) add(parent int, layer, name string, iter, thread int, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Layer: layer, Name: name, Iter: iter, Thread: thread,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
	t.mu.Unlock()
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of that interval its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Layer] += s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// covered is the length of the union of the spans' intervals clipped to
// [lo, hi]: children on different goroutines may overlap.
func covered(kids []span, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	at := lo
	for _, k := range kids {
		s, e := max(k.Start, at), min(k.End, hi)
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON (load it in
// chrome://tracing or ui.perfetto.dev). The category is the layer.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Thread,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "iter": s.Iter},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"aos/internal/telemetry"
)

// tracer records the traced run's spans in memory: name, start, end and
// parent, one span per call the benchmark makes into a layer. The spans
// are written once, at the end, with the in-tree Perfetto writer. A nil
// tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []spanRec
}

type spanRec struct {
	name       string
	parent     int // index+1 of the parent span, 0 for a root
	start, end time.Time
	attrs      map[string]any
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now()})
	return len(t.spans)
}

// end closes span id, attaching attrs (may be nil).
func (t *tracer) end(id int, attrs map[string]any) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now()
	t.spans[id-1].attrs = attrs
}

// add records an already finished span.
func (t *tracer) add(name string, parent int, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: start, end: end, attrs: attrs})
}

// timed runs fn inside a span and returns fn's wall time.
func (t *tracer) timed(name string, parent int, fn func(id int)) time.Duration {
	id := t.start(name, parent)
	t0 := now()
	fn(id)
	d := since(t0)
	t.end(id, nil)
	return d
}

// write renders the spans with telemetry.WriteMergedTrace, validates the
// document with telemetry.ValidateTraceJSON and writes it to path.
func (t *tracer) write(path, proc string) (telemetry.TraceStats, error) {
	t.mu.Lock()
	evs := make([]telemetry.SpanEvent, 0, len(t.spans))
	for i, s := range t.spans {
		end := s.end
		if end.IsZero() {
			end = s.start
		}
		dur := uint64(end.Sub(s.start) / time.Microsecond)
		if dur == 0 {
			dur = 1 // the validator rejects non-positive slice durations
		}
		args := map[string]any{"span_id": i + 1}
		if s.parent != 0 {
			args["parent_id"] = s.parent
		}
		for k, v := range s.attrs { //aoslint:allow mapiter — copied into a map; WriteMergedTrace sorts keys
			args[k] = v
		}
		evs = append(evs, telemetry.SpanEvent{
			Name:     s.name,
			TsMicros: uint64(s.start.Sub(t.epoch) / time.Microsecond),
			Dur:      dur,
			Args:     args,
		})
	}
	t.mu.Unlock()
	var buf bytes.Buffer
	if err := telemetry.WriteMergedTrace(&buf, proc, nil, evs); err != nil {
		return telemetry.TraceStats{}, fmt.Errorf("spans: %w", err)
	}
	st, err := telemetry.ValidateTraceJSON(buf.Bytes())
	if err != nil {
		return st, fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return st, fmt.Errorf("spans: %w", err)
	}
	return st, nil
}

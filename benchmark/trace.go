package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records a span around every call the benchmark makes into a
// layer of the program. Spans are kept in memory and written once, at
// the end of the run. A nil tracer records nothing, which is how the
// untraced pass runs the same code.
type tracer struct {
	workload string
	pid      int // workload index: one Chrome-trace process per workload
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call: its name, the track (caller) it ran on, its
// start and end since the tracer began, and the span that caused it
// (0 for none; ids are 1-based).
type span struct {
	name       string
	track      int
	parent     int
	start, end time.Duration
}

func newTracer(workload string, pid int) *tracer {
	return &tracer{workload: workload, pid: pid, t0: time.Now()}
}

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(parent, track int, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, track: track, parent: parent, start: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceFile is the JSON object chrome://tracing and Perfetto load.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func (t *tracer) events() []traceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	evs := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		evs[i] = traceEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: t.pid, Tid: s.track,
			Args: map[string]any{"id": i + 1, "parent": s.parent, "workload": t.workload},
		}
	}
	return evs
}

// writeTrace writes events as one loadable trace file.
func writeTrace(path string, events []traceEvent) error {
	buf, err := json.Marshal(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// readTrace loads the events of a file writeTrace produced.
func readTrace(path string) ([]traceEvent, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f traceFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, err
	}
	return f.TraceEvents, nil
}

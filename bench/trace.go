package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// layers are the parts a traced pass's wall time is split into. A span
// belongs to the layer its name starts with; "bench" is time inside a pass
// that no layer span covers (the benchmark's own loop and glue).
var layers = []string{"bench", "minic", "annotate", "compile", "core", "kernel", "vm", "explore"}

// anyItem selects spans of every item.
const anyItem = -2

// span is one timed call. Times are offsets from the tracer's epoch.
type span struct {
	name       string
	start, end time.Duration
	child      time.Duration // part of [start, end) covered by child spans
	parent     int           // index of the enclosing span, -1 at the root
	item       int           // input the call worked on, -1 when none
}

// self is the span's duration minus the time its children cover.
func (s *span) self() time.Duration { return s.end - s.start - s.child }

// tracer keeps spans in memory for the whole run; they are written out at
// exit. It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, item int) int {
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, item: item})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its self time in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
	if s.parent >= 0 {
		t.spans[s.parent].child += s.end - s.start
	}
	return s.self().Seconds()
}

// durations returns the self time, in seconds, of every span of the given
// name on item (or on all items with anyItem).
func (t *tracer) durations(name string, item int) []float64 {
	var out []float64
	for i := range t.spans {
		s := &t.spans[i]
		if s.name == name && (item == anyItem || s.item == item) {
			out = append(out, s.self().Seconds())
		}
	}
	return out
}

// meanOr is the mean self time of name on item, falling back to all items
// when item has no span of that name. A mean, not a median: it is
// multiplied by a call count to estimate the calls' total time.
func (t *tracer) meanOr(name string, item int) float64 {
	if d := t.durations(name, item); len(d) > 0 {
		return mean(d)
	}
	return mean(t.durations(name, anyItem))
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, the self time (duration minus the part its
// child spans cover) of every span inside a bench.pass span. Children
// never overlap, so the layer totals add up to the passes' wall time.
func (t *tracer) selfTimes() map[string]float64 {
	inPass := make([]bool, len(t.spans))
	out := map[string]float64{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.parent >= 0 {
			inPass[i] = inPass[s.parent]
		} else {
			inPass[i] = s.name == "bench.pass"
		}
		if inPass[i] {
			out[layerOf(s.name)] += s.self().Seconds()
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" = complete event, times in
// microseconds).
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves the spans as Chrome trace-event JSON; otherData carries the
// run's identity and the self time per traced pass of every layer.
func (t *tracer) write(path, workload string, seed int64, self map[string]float64, passes int) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name,
			Cat:  layerOf(s.name),
			Ph:   "X",
			Ts:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid:  1,
			Tid:  1,
			Args: map[string]int{"id": i, "parent": s.parent, "item": s.item},
		}
	}
	other := map[string]interface{}{"workload": workload, "seed": seed, "traced_passes": passes}
	for _, layer := range layers {
		other["self_ms."+layer] = 1e3 * self[layer] / float64(passes)
	}
	data, err := json.Marshal(map[string]interface{}{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       other,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (spans inside the program are a later change). Parent is the
// ID of the span that caused it, 0 for the workload root.
type Span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"startNS"`
	EndNS    int64  `json:"endNS"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the end-to-end runs keep tracing off. The lock
// is for the serve workload, where client workers and the gossip driver
// record concurrently.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []Span
	// enabled gates recording inside a traced run: the timed window
	// alternates it so the same run yields the traced-versus-untraced
	// comparison behind trace.overhead_frac.
	enabled bool
}

func newTracer(workload string) *tracer {
	t := &tracer{workload: workload, epoch: time.Now(), enabled: true}
	t.spans = append(t.spans, Span{ID: 1, Name: "workload", Workload: workload})
	return t
}

const rootSpan = 1

func (t *tracer) setEnabled(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.enabled = on
	t.mu.Unlock()
}

// record adds a finished span and returns its ID (0 when not recorded).
func (t *tracer) record(parent int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.enabled {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// traceFile is the on-disk shape of trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []Span `json:"spans"`
}

// write closes the root span and writes the trace next to the result set.
func (t *tracer) write(dir string, seed int64) (string, error) {
	t.mu.Lock()
	t.spans[0].EndNS = time.Since(t.epoch).Nanoseconds()
	data, err := json.Marshal(traceFile{Workload: t.workload, Seed: seed, Spans: t.spans})
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+t.workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}

// abba reports whether step i of a traced window records spans. The
// on/off/off/on pattern cancels a linear drift of the step time (cycles
// get cheaper as the system converges) out of the comparison.
func abba(i int) bool { return i%4 == 0 || i%4 == 3 }

// overheadFrac compares the steps that recorded spans with the ones that
// did not: mean traced step over mean untraced step, minus one.
func overheadFrac(steps []time.Duration) float64 {
	var on, off time.Duration
	var nOn, nOff int
	for i, d := range steps {
		if abba(i) {
			on += d
			nOn++
		} else {
			off += d
			nOff++
		}
	}
	if nOn == 0 || nOff == 0 || off == 0 {
		return 0
	}
	return (float64(on)/float64(nOn))/(float64(off)/float64(nOff)) - 1
}

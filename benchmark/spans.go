package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request or run share
// TraceID; Parent is the ID of the span that caused this one (0 for none).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	TraceID string  `json:"trace_id"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// spanLog keeps a traced run's spans in memory until the benchmark ends.
// A nil *spanLog records nothing, so untraced paths pass nil.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span starting now and returns its ID.
func (l *spanLog) begin(name, traceID string, parent int) int {
	if l == nil {
		return 0
	}
	return l.add(name, traceID, parent, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].EndMs = ms(now.Sub(l.origin))
}

// add records a finished span and returns its ID.
func (l *spanLog) add(name, traceID string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, TraceID: traceID, Name: name,
		StartMs: ms(start.Sub(l.origin)), EndMs: ms(end.Sub(l.origin))})
	return id
}

// write stores the spans as one JSON array at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return os.WriteFile(path, b, 0o644)
}

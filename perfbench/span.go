package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's
// own code around a public function. Times are offsets from the
// tracer's start.
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"` // 0 = root
	Op     int64         `json:"op"`     // operation the span belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer
// records nothing, so untraced code paths pay one nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// spanRef is an open span; End closes it.
type spanRef struct {
	tr  *Tracer
	idx int
	id  int64
}

// Start opens a span named name under parent (0 for a root) in
// operation op. The returned reference's id is the parent id to pass
// to child spans.
func (t *Tracer) Start(name string, parent, op int64) spanRef {
	if t == nil {
		return spanRef{}
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return spanRef{tr: t, idx: len(t.spans) - 1, id: id}
}

// End closes the span and returns its duration.
func (r spanRef) End() time.Duration {
	if r.tr == nil {
		return 0
	}
	now := time.Since(r.tr.t0)
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	s := &r.tr.spans[r.idx]
	s.End = now
	return s.dur()
}

// Spans returns a copy of every closed span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children
// (parallel work under one parent) count once.
func selfTimes(spans []Span) map[int64]time.Duration {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent Span, kids []Span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	for i := 0; i < len(iv); {
		a, b := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= b; i++ {
			b = max(b, iv[i][1])
		}
		total += b - a
	}
	return total
}

// layerRow aggregates the spans of one name.
type layerRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// layerTable groups spans by name with their total and self times,
// largest self time first.
func layerTable(spans []Span) []layerRow {
	self := selfTimes(spans)
	rows := map[string]*layerRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.dur()
		r.Self += self[s.ID]
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// byName returns the durations of every closed span called name.
func byName(spans []Span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

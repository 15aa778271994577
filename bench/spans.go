package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"time"
)

// Benchmark-side spans: recorded only in the traced run, around the calls the
// benchmark makes into the program (set-up, repetition, reference sample,
// inject, output). They stay in memory until the run ends. Spans inside the
// program are the program's own business (obs.Tracer) and not used here.

type span struct {
	name       string
	start, end int64 // ns since the recorder started
	parent     int   // index of the enclosing span, -1 for none
	age        int   // age id, -1 when the span is not about one age
}

// spans is nil in untraced runs; every method is a no-op on nil.
type spans struct {
	t0 time.Time
	mu sync.Mutex
	s  []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished span and returns its id, for children's parent.
func (sp *spans) add(name string, parent, age int, from, to time.Time) int {
	if sp == nil {
		return -1
	}
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.s = append(sp.s, span{name: name, start: from.Sub(sp.t0).Nanoseconds(), end: to.Sub(sp.t0).Nanoseconds(), parent: parent, age: age})
	return len(sp.s) - 1
}

// begin opens a span that end closes.
func (sp *spans) begin(name string, parent, age int) int {
	if sp == nil {
		return -1
	}
	now := time.Now()
	return sp.add(name, parent, age, now, now)
}

func (sp *spans) end(id int) {
	if sp == nil {
		return
	}
	now := time.Since(sp.t0).Nanoseconds()
	sp.mu.Lock()
	sp.s[id].end = now
	sp.mu.Unlock()
}

// instant records a zero-length span (an inject or an output).
func (sp *spans) instant(name string, parent, age int) { sp.begin(name, parent, age) }

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// chrome://tracing or Perfetto). Each span is one complete ("X") event; its
// parent index and age id ride in args.
func (sp *spans) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range sp.s {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"age\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.age)
	}
	fmt.Fprintln(w, "\n]}")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

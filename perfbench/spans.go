package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"nustencil/internal/trace"
)

// spanRec is one recorded interval around a call into a layer. parent is
// the id of the enclosing span (-1 at the top), so self time can be taken
// as the span's duration minus what its children cover.
type spanRec struct {
	name       string
	lane       int
	parent     int
	start, end time.Duration
}

// spans records the benchmark's own spans in memory; they are written out
// once, at the end of a traced run. A nil *spans records nothing, which is
// how untraced runs keep the timed calls free of bookkeeping.
type spans struct {
	// tr is made first, so no span starts before the trace's own origin.
	tr     *trace.Trace
	origin time.Time
	mu     sync.Mutex
	recs   []spanRec
}

func newSpans() *spans {
	tr := trace.New()
	return &spans{tr: tr, origin: time.Now()}
}

// begin opens a span and returns its id (-1 when not recording).
func (s *spans) begin(name string, lane, parent int) int {
	if s == nil {
		return -1
	}
	now := time.Since(s.origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recs = append(s.recs, spanRec{name: name, lane: lane, parent: parent, start: now, end: -1})
	return len(s.recs) - 1
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id < 0 {
		return
	}
	now := time.Since(s.origin)
	s.mu.Lock()
	s.recs[id].end = now
	s.mu.Unlock()
}

// do runs f inside a span named name.
func (s *spans) do(name string, lane, parent int, f func()) {
	id := s.begin(name, lane, parent)
	f()
	s.end(id)
}

func (s *spans) closed() []spanRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]spanRec, 0, len(s.recs))
	for _, r := range s.recs {
		if r.end >= 0 {
			out = append(out, r)
		}
	}
	return out
}

// layerTime is one span name's summed total and self time.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the total time and the self time: each
// span's duration minus the union of the intervals its children cover.
func (s *spans) selfTimes() []layerTime {
	s.mu.Lock()
	recs := append([]spanRec(nil), s.recs...)
	s.mu.Unlock()
	children := make(map[int][]spanRec)
	for _, r := range recs {
		if r.parent >= 0 && r.end >= 0 {
			children[r.parent] = append(children[r.parent], r)
		}
	}
	by := map[string]*layerTime{}
	var order []string
	for id, r := range recs {
		if r.end < 0 {
			continue
		}
		lt := by[r.name]
		if lt == nil {
			lt = &layerTime{name: r.name}
			by[r.name] = lt
			order = append(order, r.name)
		}
		dur := r.end - r.start
		lt.count++
		lt.total += dur
		lt.self += dur - covered(r, children[id])
	}
	out := make([]layerTime, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent spanRec, kids []spanRec) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.start, k.end
		if lo < parent.start {
			lo = parent.start
		}
		if hi > parent.end {
			hi = parent.end
		}
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	curLo, curHi := time.Duration(-1), time.Duration(-1)
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				sum += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		sum += curHi - curLo
	}
	return sum
}

// writeChrome writes the closed spans as Chrome trace-event JSON through
// internal/trace: one process, one thread per lane, each span an X event.
func (s *spans) writeChrome(w io.Writer, laneNames map[int]string) error {
	const pid = 1
	tr := s.tr
	tr.SetProcessName(pid, "perfbench")
	named := map[int]bool{}
	for id, r := range s.closed() {
		if !named[r.lane] {
			named[r.lane] = true
			name := laneNames[r.lane]
			if name == "" {
				name = fmt.Sprintf("lane %d", r.lane)
			}
			tr.SetThreadName(pid, r.lane, name)
		}
		tr.RecordOn(pid, r.lane, r.lane, r.name, id, 0, 0, 0, s.origin.Add(r.start), s.origin.Add(r.end))
	}
	return tr.WriteChromeTrace(w, 0)
}

package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verfploeter/internal/obsv"
)

// Lanes group spans by the goroutine family that produced them. The
// program's own obsv spans carry no caller identity, so they are nested
// only under spans of the writer lane, where every call that can emit
// them is made.
const (
	laneWriter = "writer"
	laneClient = "client"
	laneServer = "server"
)

// span is one recorded interval: a benchmark call boundary or a span the
// program emitted through obsv. Op groups the spans of one operation
// (a round, an epoch, an advance, a request).
type span struct {
	ID, Parent int
	Op         int
	Layer      string
	Name       string
	Lane       string
	// Worker is the obsv span's worker index (sweep chunk, epoch).
	Worker   int
	Start    time.Time
	Dur      time.Duration
	FromObsv bool
}

func (s *span) iv() interval { return ivOf(s.Start, s.Dur) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced benchmark: every method is a no-op, so timed code calls
// through unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
	next  atomic.Int64
}

// open is an in-flight span; end records it.
type open struct {
	t *tracer
	s span
}

// begin opens a span. parent is the enclosing span's id (0 for a root).
func (t *tracer) begin(lane, layer, name string, op, parent int) *open {
	if t == nil {
		return nil
	}
	id := int(t.next.Add(1))
	return &open{t: t, s: span{ID: id, Parent: parent, Op: op, Layer: layer, Name: name,
		Lane: lane, Start: time.Now()}}
}

// id returns the span's id, 0 for a nil span (tracing off).
func (o *open) id() int {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *open) end() {
	if o == nil {
		return
	}
	o.s.Dur = time.Since(o.s.Start)
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// obsvLayer maps the program's obsv span phases to their module.
func obsvLayer(phase string) string {
	switch phase {
	case "sweep", "fold":
		return "verfploeter"
	case "epoch", "classify":
		return "monitor"
	case "bgp-compute", "bgp-delta", "assign":
		return "bgp"
	}
	if i := strings.IndexByte(phase, ':'); i > 0 {
		return phase[:i]
	}
	return phase
}

// absorb adds the registry's completed spans to the trace, each nested
// under the innermost writer-lane span whose interval contains it
// (benchmark spans and other obsv spans alike), and takes the operation
// id of the benchmark span it ends up under.
func (t *tracer) absorb(reg *obsv.Registry) {
	if t == nil {
		return
	}
	for _, ps := range reg.Spans() {
		t.spans = append(t.spans, span{ID: int(t.next.Add(1)), Worker: ps.Worker,
			Layer: obsvLayer(ps.Phase), Name: ps.Phase, Lane: laneWriter,
			Start: ps.Start, Dur: ps.Wall, FromObsv: true})
	}
	nest(t.spans)
}

// nest assigns a parent to every obsv span: the shortest writer-lane
// span that contains it (a longer one when durations tie with another
// obsv span, so no cycle forms). Each obsv span then inherits the
// operation id of the nearest benchmark span above it.
func nest(spans []span) {
	var writers []int
	byID := make(map[int]int, len(spans))
	for i := range spans {
		byID[spans[i].ID] = i
		if spans[i].Lane == laneWriter {
			writers = append(writers, i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if !s.FromObsv {
			continue
		}
		siv := s.iv()
		best := -1
		for _, j := range writers {
			p := &spans[j]
			piv := p.iv()
			if j == i || piv.start > siv.start || piv.end < siv.end ||
				(p.FromObsv && p.Dur == s.Dur) {
				continue
			}
			if best < 0 || p.Dur < spans[best].Dur {
				best = j
			}
		}
		if best >= 0 {
			s.Parent = spans[best].ID
		}
	}
	for i := range spans {
		if !spans[i].FromObsv {
			continue
		}
		for p := spans[i].Parent; p != 0; {
			ps := &spans[byID[p]]
			if !ps.FromObsv {
				spans[i].Op = ps.Op
				break
			}
			p = ps.Parent
		}
	}
}

// selfByLayer returns each layer's self time in seconds: for every span,
// its duration minus the union of its children's intervals, summed per
// layer.
func selfByLayer(spans []span) map[string]float64 {
	kids := map[int][]interval{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			kids[p] = append(kids[p], spans[i].iv())
		}
	}
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		out[s.Layer] += float64(selfTime(s.iv(), kids[s.ID])) / 1e9
	}
	return out
}

// traceEvent is one Chrome trace-event record ("X" complete events plus
// "M" thread-name metadata), the JSON form Perfetto and chrome://tracing
// open.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Args any     `json:"args,omitempty"`
}

// spanArgs are a slice's identity: its span id, parent, operation and,
// for a program span, the obsv worker index.
type spanArgs struct {
	ID     int  `json:"id"`
	Parent int  `json:"parent"`
	Op     int  `json:"op"`
	Worker int  `json:"worker"`
	Obsv   bool `json:"obsv"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Spans are
// packed onto threads so that every thread's slices nest properly:
// a span goes onto its parent's thread when it fits inside that
// thread's open stack, otherwise onto the first thread of its lane
// where it does, otherwise onto a new thread.
func writeChrome(path string, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := &spans[order[a]], &spans[order[b]]
		if !sa.Start.Equal(sb.Start) {
			return sa.Start.Before(sb.Start)
		}
		return sa.Dur > sb.Dur
	})
	type thread struct {
		lane  string
		stack []interval
	}
	var threads []*thread
	tidOf := map[int]int{}
	fits := func(th *thread, iv interval) bool {
		for len(th.stack) > 0 && th.stack[len(th.stack)-1].end <= iv.start {
			th.stack = th.stack[:len(th.stack)-1]
		}
		return len(th.stack) == 0 || th.stack[len(th.stack)-1].end >= iv.end
	}
	var t0 int64
	if len(order) > 0 {
		t0 = spans[order[0]].iv().start
	}
	events := make([]traceEvent, 0, len(spans)+8)
	for _, i := range order {
		s := &spans[i]
		iv := s.iv()
		tid := -1
		if pt, ok := tidOf[s.Parent]; ok && fits(threads[pt], iv) {
			tid = pt
		}
		for k := 0; tid < 0 && k < len(threads); k++ {
			if threads[k].lane == s.Lane && fits(threads[k], iv) {
				tid = k
			}
		}
		if tid < 0 {
			threads = append(threads, &thread{lane: s.Lane})
			tid = len(threads) - 1
		}
		threads[tid].stack = append(threads[tid].stack, iv)
		tidOf[s.ID] = tid
		events = append(events, traceEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(iv.start-t0) / 1e3,
			Dur: float64(iv.dur()) / 1e3,
			Pid: 1, Tid: tid + 1,
			Args: spanArgs{s.ID, s.Parent, s.Op, s.Worker, s.FromObsv},
		})
	}
	for k, th := range threads {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: k + 1,
			Args: map[string]string{"name": th.lane}})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

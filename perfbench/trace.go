package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point of the program. Spans of one op share op; parent is
// the span that made the call (0 for an op's root span). The name is an
// index into the tracer's name table, so a span holds no pointer and a
// run's hundreds of thousands of spans cost the garbage collector nothing
// to scan.
type span struct {
	id, parent, op int32
	name           uint16
	start, end     int64
}

// spanJSON is a span as written out.
type spanJSON struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span of a traced run in memory; they are written out
// once the run ends. Times are monotonic nanoseconds since the tracer's
// epoch.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int32
	nextOp atomic.Int32

	mu    sync.Mutex
	spans []span            // guarded by mu
	names []string          // guarded by mu
	index map[string]uint16 // guarded by mu
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), index: map[string]uint16{}} }

// nameID returns the name table index of name, adding it if new. Callers
// hold mu.
func (t *tracer) nameID(name string) uint16 {
	id, ok := t.index[name]
	if !ok {
		id = uint16(len(t.names))
		t.names = append(t.names, name)
		t.index[name] = id
	}
	return id
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span.
func (t *tracer) add(id, parent, op int32, name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, parent: parent, op: op, name: t.nameID(name), start: start, end: end})
	t.mu.Unlock()
}

// opTrace is the tracing context of one op: the tracer, the op id, and the
// id of the op's root span.
type opTrace struct {
	t    *tracer
	op   int32
	root int32
}

// beginOp allocates an op id and its root span id; the root span itself is
// recorded by endOp.
func (t *tracer) beginOp() *opTrace {
	return &opTrace{t: t, op: t.nextOp.Add(1), root: t.nextID.Add(1)}
}

// rootSpan names an op's root span.
const rootSpan = "op"

func (o *opTrace) endOp(start int64) {
	o.t.add(o.root, 0, o.op, rootSpan, start, o.t.now())
}

// newID reserves a span id, for spans whose children start before the
// span is recorded (the crowd calls inside a labeling run).
func (o *opTrace) newID() int32 { return o.t.nextID.Add(1) }

// record stores a finished span that started at start.
func (o *opTrace) record(id, parent int32, name string, start int64) {
	o.t.add(id, parent, o.op, name, start, o.t.now())
}

// timed runs fn inside a span named name under parent.
func (o *opTrace) timed(name string, parent int32, fn func()) {
	start := o.t.now()
	fn()
	o.record(o.newID(), parent, name, start)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	spans, names := t.spans, t.names
	t.mu.Unlock()
	for _, s := range spans {
		js := spanJSON{ID: s.id, Parent: s.parent, Op: s.op, Name: names[s.name], Start: s.start, End: s.end}
		if err := enc.Encode(js); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the traced run's per-op mean of each span name's total
// (inclusive) and self time, in ms, and its mean count of spans per op,
// over the middle half of the traced ops by duration. Those ops sum to
// about the median op, which the stage table compares with the untraced
// median; a plain mean would also carry the slow tail.
type layerTimes struct {
	ops   int
	total map[string]float64
	self  map[string]float64
	count map[string]float64
}

// summarize computes self times: a span's duration minus the part of its
// interval that its children cover (children may overlap one another, as
// the server's crowd workers do, so their union is taken).
func (t *tracer) summarize() layerTimes {
	t.mu.Lock()
	spans, names := t.spans, t.names
	root := t.nameID(rootSpan)
	t.mu.Unlock()
	children := make(map[int32][][2]int64)
	var durs []float64
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
		if s.name == root {
			durs = append(durs, float64(s.end-s.start))
		}
	}
	lo, hi := percentile(durs, 0.25), percentile(durs, 0.75)
	ops := make(map[int32]bool)
	for _, s := range spans {
		if d := float64(s.end - s.start); s.name == root && d >= lo && d <= hi {
			ops[s.op] = true
		}
	}
	lt := layerTimes{ops: len(ops), total: map[string]float64{}, self: map[string]float64{}, count: map[string]float64{}}
	if lt.ops == 0 {
		return lt
	}
	n := float64(lt.ops)
	for _, s := range spans {
		if !ops[s.op] {
			continue // an op outside the middle half
		}
		d := s.end - s.start
		self := d - covered(s.start, s.end, children[s.id])
		name := names[s.name]
		lt.total[name] += float64(d) / 1e6 / n
		lt.self[name] += float64(self) / 1e6 / n
		lt.count[name] += 1 / n
	}
	return lt
}

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = slices.Clone(ivs)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var sum int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// prefixed sums m over the span names that start with prefix.
func prefixed(m map[string]float64, prefix string) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			sum += v
		}
	}
	return sum
}

// writeStageTable prints each layer span's mean self time per op, their
// sum and that sum as a share of the untraced median op time, and, on a
// line of its own, the op's time outside every layer span.
func writeStageTable(w io.Writer, workload string, lt layerTimes, untracedP50, tracedP50 float64) {
	names := make([]string, 0, len(lt.self))
	for k := range lt.self {
		if k != rootSpan {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "stage table %s (mean self time per op over the middle %d traced ops by duration)\n", workload, lt.ops)
	fmt.Fprintf(w, "  %-22s %10s %8s\n", "span", "self_ms", "calls")
	var sum float64
	for _, k := range names {
		fmt.Fprintf(w, "  %-22s %10.3f %8.1f\n", k, lt.self[k], lt.count[k])
		sum += lt.self[k]
	}
	fmt.Fprintf(w, "  %-22s %10.3f\n", "sum of layers", sum)
	fmt.Fprintf(w, "  %-22s %10.3f\n", "outside every layer", lt.self[rootSpan])
	fmt.Fprintf(w, "  untraced join_p50_ms %.3f; layers/p50 %.3f; traced p50 %.3f; tracing overhead %.1f%%\n",
		untracedP50, sum/untracedP50, tracedP50, 100*(tracedP50-untracedP50)/untracedP50)
}

package main

import (
	"os"

	"crowdjoin"
)

// The wrappers below are the traced run's layer boundaries: the benchmark
// hands them to the program in place of the crowd backend and the journal
// stream, and each call through them becomes a span under the labeling
// span that caused it. The untraced run passes the inner values directly.

// tracedBatch times a BatchOracle.
type tracedBatch struct {
	inner  crowdjoin.BatchOracle
	o      *opTrace
	parent int32
}

func (b *tracedBatch) LabelBatch(ps []crowdjoin.Pair) []crowdjoin.Label {
	start := b.o.t.now()
	ls := b.inner.LabelBatch(ps)
	b.o.record(b.o.newID(), b.parent, "crowd.batch", start)
	return ls
}

// tracedPlatform times a Platform.
type tracedPlatform struct {
	inner  crowdjoin.Platform
	o      *opTrace
	parent int32
}

func (p *tracedPlatform) Publish(ps []crowdjoin.Pair) {
	start := p.o.t.now()
	p.inner.Publish(ps)
	p.o.record(p.o.newID(), p.parent, "crowd.publish", start)
}

func (p *tracedPlatform) NextLabel() (crowdjoin.Pair, crowdjoin.Label, bool) {
	start := p.o.t.now()
	q, l, ok := p.inner.NextLabel()
	p.o.record(p.o.newID(), p.parent, "crowd.next", start)
	return q, l, ok
}

func (p *tracedPlatform) Available() int {
	start := p.o.t.now()
	n := p.inner.Available()
	p.o.record(p.o.newID(), p.parent, "crowd.available", start)
	return n
}

// tracedJournal times the journal stream's reads and writes and counts
// the bytes written.
type tracedJournal struct {
	f      *os.File
	o      *opTrace
	parent int32
	bytes  int64
}

func (j *tracedJournal) Read(b []byte) (int, error) {
	start := j.o.t.now()
	n, err := j.f.Read(b)
	j.o.record(j.o.newID(), j.parent, "journal.read", start)
	return n, err
}

func (j *tracedJournal) Write(b []byte) (int, error) {
	start := j.o.t.now()
	n, err := j.f.Write(b)
	j.o.record(j.o.newID(), j.parent, "journal.write", start)
	j.bytes += int64(n)
	return n, err
}

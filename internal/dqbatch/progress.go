package dqbatch

import (
	"sync/atomic"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Offsetter is a source that knows its record-aligned input byte offset.
// NDJSONSource and CSVSource implement it; the offset advances only on
// whole consumed records, which makes it a valid checkpoint position.
type Offsetter interface {
	ByteOffset() int64
}

// Progress publishes a running batch's input-side position for concurrent
// readers: the records delivered to the engine and, when the source is an
// Offsetter, the byte offset those records end at. The engine's producer
// and decode goroutines write through a CountSource wrapper; any goroutine
// (a job server's status endpoint, a checkpoint ticker) may read at any
// time.
type Progress struct {
	records atomic.Int64
	bytes   atomic.Int64
}

// Records returns how many records the source has delivered so far
// (malformed skipped records are not counted).
func (p *Progress) Records() int64 { return p.records.Load() }

// Bytes returns the input byte offset the delivered records end at; 0
// when the wrapped source is not an Offsetter.
func (p *Progress) Bytes() int64 { return p.bytes.Load() }

// CountSource wraps src so every delivered record (and the source's byte
// offset, when available) is published through p. The wrapper preserves
// the source's capabilities: wrapping a SpanSource yields a SpanSource and
// a BatchSource a BatchSource, so the engine fills chunks the same way.
func CountSource(src Source, p *Progress) Source {
	cs := &countingSource{src: src, p: p}
	if off, ok := src.(Offsetter); ok {
		cs.off = off
	}
	if ssrc, ok := src.(SpanSource); ok {
		return &countingSpanSource{
			countingBatchSource: countingBatchSource{countingSource: cs, bsrc: ssrc},
			ssrc:                ssrc,
		}
	}
	if bsrc, ok := src.(BatchSource); ok {
		return &countingBatchSource{countingSource: cs, bsrc: bsrc}
	}
	return cs
}

type countingSource struct {
	src Source
	off Offsetter
	p   *Progress
}

func (c *countingSource) Next(rec dqruntime.Record) (dqruntime.Record, error) {
	got, err := c.src.Next(rec)
	if err == nil {
		c.p.records.Add(1)
	}
	// Publish the offset even on malformed records: the source consumed
	// them, so the checkpoint may move past them.
	if c.off != nil {
		c.p.bytes.Store(c.off.ByteOffset())
	}
	return got, err
}

type countingBatchSource struct {
	*countingSource
	bsrc BatchSource
}

func (c *countingBatchSource) NextBatch(dst *dqruntime.ColumnBatch, max int, bad func(line int64, err error)) (int, error) {
	n, err := c.bsrc.NextBatch(dst, max, bad)
	if n > 0 {
		c.p.records.Add(int64(n))
	}
	if c.off != nil {
		c.p.bytes.Store(c.off.ByteOffset())
	}
	return n, err
}

// countingSpanSource keeps a SpanSource's span path: the byte offset is
// published from the producer side (CutSpan advances the cursor, so
// progress runs slightly ahead of decoded records), while record counts
// are added from the concurrent decode pool — Progress's counters are
// atomic, so any goroutine may write.
type countingSpanSource struct {
	countingBatchSource
	ssrc SpanSource
}

func (c *countingSpanSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	sp, err := c.ssrc.CutSpan(buf, maxLines)
	if c.off != nil {
		c.p.bytes.Store(c.off.ByteOffset())
	}
	return sp, err
}

func (c *countingSpanSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	n := c.ssrc.DecodeSpan(sp, dst, bad)
	if n > 0 {
		c.p.records.Add(int64(n))
	}
	return n
}

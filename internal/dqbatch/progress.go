package dqbatch

import (
	"sync/atomic"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// Offsetter is a source that knows its record-aligned input byte offset.
// NDJSONSource and CSVSource implement it, with exact offsets; the offset
// advances only on whole consumed records, so it always names a record
// boundary.
type Offsetter interface {
	ByteOffset() int64
}

// Progress publishes a running batch's input-side position for concurrent
// readers: the records delivered to the engine and, when the source is an
// Offsetter, the byte offset those records end at. The engine's producer
// and decode goroutines write through a CountSource wrapper; any goroutine
// (a job server's status endpoint) may read at any time.
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

// Restore sets both counters to a position read back from storage, so a
// job reloaded after its run still reports how far that run got.
func (p *Progress) Restore(records, bytes int64) {
	p.records.Store(records)
	p.bytes.Store(bytes)
}

// CountSource wraps src so every decoded record (and the source's byte
// offset, when available) is published through p. The byte offset is
// published from the producer side (CutSpan advances the cursor, so
// progress runs slightly ahead of decoded records), while record counts
// are added from the concurrent decode pool — Progress's counters are
// atomic, so any goroutine may write.
func CountSource(src Source, p *Progress) Source {
	cs := &countingSource{src: src, p: p}
	cs.off, _ = src.(Offsetter)
	return cs
}

type countingSource struct {
	src Source
	off Offsetter
	p   *Progress
}

func (c *countingSource) CutSpan(buf *[]byte, maxLines int) (Span, error) {
	sp, err := c.src.CutSpan(buf, maxLines)
	// Publish the offset even past malformed records: the source consumed
	// them, so the position may move past them.
	if c.off != nil {
		c.p.bytes.Store(c.off.ByteOffset())
	}
	return sp, err
}

func (c *countingSource) DecodeSpan(sp Span, dst *dqruntime.ColumnBatch, bad func(line int64, err error)) int {
	n := c.src.DecodeSpan(sp, dst, bad)
	if n > 0 {
		c.p.records.Add(int64(n))
	}
	return n
}

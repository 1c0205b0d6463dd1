package dqbatch

import (
	"context"
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// BuildKeySet streams src once and collects its distinct keys over the
// given fields — the first pass of the two-pass referential mode. The
// returned set plugs directly into dqruntime.ReferentialCheck.Ref for the
// validation pass. It cuts and decodes spans the way Run's producer and
// decode pool do, on one goroutine, so a reference dataset gets the same
// decoder as the validated one, and folds each batch's keys in through
// dqruntime.AddKeys, which copies only the keys the set does not hold yet,
// before the next cut reuses the span. Malformed records are skipped (a
// reference dataset's decode errors surface when that dataset is itself
// validated); any other source error aborts. The set is exact and
// unbounded: a reference dataset is assumed to fit in memory, unlike the
// validated stream.
func BuildKeySet(ctx context.Context, src Source, fields []string) (map[string]struct{}, error) {
	set := make(map[string]struct{})
	c := getColChunk()
	defer colChunkPool.Put(c)
	skip := func(int64, error) {}
	for {
		if err := ctx.Err(); err != nil {
			return set, err
		}
		c.batch.Reset()
		sp, err := src.CutSpan(&c.buf, defaultChunkSize)
		if err == io.EOF {
			return set, nil
		}
		if err != nil {
			return set, err
		}
		src.DecodeSpan(sp, &c.batch, skip)
		dqruntime.AddKeys(set, fields, &c.batch)
	}
}

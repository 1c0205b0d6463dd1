package dqbatch

import (
	"context"
	"io"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// BuildKeySet streams src once and collects its distinct keys over the
// given fields — the first pass of the two-pass referential mode. The
// returned set plugs directly into dqruntime.ReferentialCheck.Ref for the
// validation pass. It reads chunks the way Run's producer and decode pool
// do, on one goroutine, so NDJSON references get the same decoder.
// Malformed records are skipped (a reference dataset's decode errors
// surface when that dataset is itself validated); any other source error
// aborts. The set is exact and unbounded: a reference dataset is assumed
// to fit in memory, unlike the validated stream.
func BuildKeySet(ctx context.Context, src Source, fields []string) (map[string]struct{}, error) {
	set := make(map[string]struct{})
	in := feedFor(src, defaultChunkSize)
	c := getColChunk()
	defer colChunkPool.Put(c)
	rec := make(dqruntime.Record, 8)
	for {
		if err := ctx.Err(); err != nil {
			return set, err
		}
		c.reset(0)
		err := in.fill(c)
		in.decode(c)
		for i := 0; i < c.batch.Rows(); i++ {
			set[dqruntime.KeyOf(fields, c.batch.RowView(i, rec))] = struct{}{}
		}
		if err == io.EOF {
			return set, nil
		}
		if err != nil {
			return set, err
		}
	}
}

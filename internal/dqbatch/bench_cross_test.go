package dqbatch

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
)

// The BenchmarkCrossObserve* trio times each cross-record check's
// per-record work in isolation: NewStates plus ObserveBatch over prebuilt
// column batches shaped like perfbench's batch-stream-cross input —
// 100k rows in engine-sized chunks, 90k distinct e-mail addresses, paper
// ids drawn from a 5000-key reference set with 1500 dangling, and
// distinct RFC 3339 timestamps up to ten days old.
// BenchmarkCrossMergeUnique adds the merge of two uniqueness states and
// the finding over the same batches.
const (
	crossBenchRows     = 100_000
	crossBenchEmails   = 90_000
	crossBenchPapers   = 5000
	crossBenchDangling = 1500
)

// crossBenchNow is the timeliness clock the timestamps are dated against.
var crossBenchNow = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

// crossBenchBatches returns the dataset cut into defaultChunkSize batches.
func crossBenchBatches() []*dqruntime.ColumnBatch {
	rng := rand.New(rand.NewSource(1))
	var out []*dqruntime.ColumnBatch
	var b *dqruntime.ColumnBatch
	for i := 0; i < crossBenchRows; i++ {
		if i%defaultChunkSize == 0 {
			b = &dqruntime.ColumnBatch{}
			out = append(out, b)
		}
		email := i % crossBenchEmails
		paper := 1 + rng.Intn(crossBenchPapers)
		if i%(crossBenchRows/crossBenchDangling) == 0 {
			paper = crossBenchPapers + 1 + rng.Intn(1000)
		}
		age := time.Duration(rng.Int63n(int64(240 * time.Hour)))
		b.SetField("email_address", fmt.Sprintf("r524287.%d@example.org", email))
		b.SetField("paper_id", strconv.Itoa(paper))
		b.SetField("submitted_at", crossBenchNow.Add(-age).Format(time.RFC3339))
		b.EndRow()
	}
	return out
}

// benchCrossObserve folds every batch into one fresh state per iteration
// and reports the time per record.
func benchCrossObserve(b *testing.B, c dqruntime.StatefulCheck) {
	batches := crossBenchBatches()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := c.NewStates(1, 3)[0]
		base := int64(1)
		for _, batch := range batches {
			st.ObserveBatch(base, batch)
			base += int64(batch.Rows())
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*crossBenchRows), "ns/record")
}

func BenchmarkCrossObserveUnique(b *testing.B) {
	benchCrossObserve(b, dqruntime.UniquenessCheck{Fields: []string{"email_address"}})
}

func BenchmarkCrossObserveRef(b *testing.B) {
	ref := make(map[string]struct{}, crossBenchPapers)
	for id := 1; id <= crossBenchPapers; id++ {
		ref[strconv.Itoa(id)] = struct{}{}
	}
	benchCrossObserve(b, dqruntime.ReferentialCheck{Fields: []string{"paper_id"}, Ref: ref, RefName: "papers"})
}

func BenchmarkCrossObserveTimeliness(b *testing.B) {
	benchCrossObserve(b, dqruntime.TimelinessCheck{
		Field:   "submitted_at",
		Windows: []time.Duration{24 * time.Hour, 168 * time.Hour},
		Now:     func() time.Time { return crossBenchNow },
	})
}

// crossFinding keeps BenchmarkCrossMergeUnique's last finding, so the
// compiler cannot drop the work that renders it.
var crossFinding dqruntime.CrossFinding

// BenchmarkCrossMergeUnique sends the batches alternately to two
// uniqueness states, then merges them and renders the finding, as
// perfbench's cross_merge layer does for a two-worker run.
func BenchmarkCrossMergeUnique(b *testing.B) {
	batches := crossBenchBatches()
	c := dqruntime.UniquenessCheck{Fields: []string{"email_address"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := c.NewStates(2, 3)
		base := int64(1)
		for j, batch := range batches {
			st[j%2].ObserveBatch(base, batch)
			base += int64(batch.Rows())
		}
		st[0].Merge(st[1])
		crossFinding = st[0].Finding()
	}
	b.StopTimer()
	if crossFinding.Violations != crossBenchRows-crossBenchEmails {
		b.Fatalf("violations = %d, want %d", crossFinding.Violations, crossBenchRows-crossBenchEmails)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*crossBenchRows), "ns/record")
}

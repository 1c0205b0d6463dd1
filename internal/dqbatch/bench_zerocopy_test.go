// Benchmarks for the zero-copy ingest path: decode-only mmap-vs-bufio,
// end-to-end engine runs over a real file through both sources, and the
// uniqueness key handling before/after the hashed-table rewrite.
// scripts/bench.sh parses them into BENCH_batch.json speedup keys
// (mmap_vs_bufio, file_mmap_vs_bufio, uniqueness_key_allocs_reduction).
package dqbatch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// benchNDJSONDoc serializes records as NDJSON with the case-study fields
// in a fixed order, then the named extra fields, so every source parses
// identical bytes.
func benchNDJSONDoc(recs []dqruntime.Record, extra ...string) []byte {
	fields := append([]string{"first_name", "last_name", "email_address", "overall_evaluation", "reviewer_confidence"}, extra...)
	var b bytes.Buffer
	for _, r := range recs {
		sep := '{'
		for _, f := range fields {
			fmt.Fprintf(&b, "%c%q:%q", sep, f, r[f])
			sep = ','
		}
		b.WriteString("}\n")
	}
	return b.Bytes()
}

// benchDecode drains NextBatch over the benchmark document — decoding
// only, no validation — so the mmap/bufio pair isolates the ingest cost.
func benchDecode(b *testing.B, mk func() Source) {
	var batch dqruntime.ColumnBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := mk()
		rows := 0
		for {
			batch.Reset()
			n, err := src.NextBatch(&batch, 256, func(int64, error) {
				b.Fatal("malformed line in benchmark document")
			})
			rows += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if rows != benchRecords {
			b.Fatalf("decoded %d rows, want %d", rows, benchRecords)
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkDecodeBufio is the scanner + encoding/json decode baseline.
func BenchmarkDecodeBufio(b *testing.B) {
	doc := string(benchNDJSONDoc(benchDataset()))
	benchDecode(b, func() Source { return NewNDJSONSource(strings.NewReader(doc)) })
}

// BenchmarkDecodeMmap slices records out of an in-memory mapping through
// the fast flat-JSON parser — compare with BenchmarkDecodeBufio for the
// zero-copy ingest speedup.
func BenchmarkDecodeMmap(b *testing.B) {
	doc := benchNDJSONDoc(benchDataset())
	benchDecode(b, func() Source { return NewMmapNDJSONSource(doc) })
}

// benchFile runs the full engine over a real on-disk file through the
// given opener — the end-to-end number the zero-copy work moves.
func benchFile(b *testing.B, open func(path string) (Source, func() error, error)) {
	v := benchValidator(b)
	path := filepath.Join(b.TempDir(), "bench.ndjson")
	if err := os.WriteFile(path, benchNDJSONDoc(benchDataset()), 0o644); err != nil {
		b.Fatal(err)
	}
	opts := Options{Workers: 2, Registry: obs.NewRegistry()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, closer, err := open(path)
		if err != nil {
			b.Fatal(err)
		}
		res, err := Run(context.Background(), v, src, opts)
		if cerr := closer(); cerr != nil {
			b.Fatal(cerr)
		}
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != benchRecords || res.Failed != benchRecords/10 {
			b.Fatalf("result = %+v", res)
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkBatchFileBufio reads the file through os.Open + the scanner
// source: the pre-mmap ingest path.
func BenchmarkBatchFileBufio(b *testing.B) {
	benchFile(b, func(path string) (Source, func() error, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return NewNDJSONSource(f), f.Close, nil
	})
}

// BenchmarkBatchFileMmap reads the same file through OpenFileSource — the
// mmap source plus the pipelined decode stage when the platform allows.
func BenchmarkBatchFileMmap(b *testing.B) {
	benchFile(b, func(path string) (Source, func() error, error) {
		return OpenFileSource(path, "ndjson")
	})
}

// benchKeyRecords is a high-duplication two-field key dataset: repeat
// observations dominate, which is where key materialization cost shows.
const benchKeyDistinct = 2500

func benchKeyBatch() *dqruntime.ColumnBatch {
	recs := make([]dqruntime.Record, benchRecords)
	for i := range recs {
		recs[i] = dqruntime.Record{
			"k1": "tenant-" + strconv.Itoa(i%50),
			"k2": "user-" + strconv.Itoa(i%benchKeyDistinct),
		}
	}
	batch := &dqruntime.ColumnBatch{}
	batch.Columnarize(recs)
	return batch
}

// BenchmarkBatchUniquenessKeysBaseline is the pre-rewrite key handling:
// one key string concatenated per record, counted in a map — the
// per-record allocation the hashed table eliminates.
func BenchmarkBatchUniquenessKeysBaseline(b *testing.B) {
	batch := benchKeyBatch()
	k1, k2 := batch.Col("k1"), batch.Col("k2")
	rows := batch.Rows()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys := make(map[string]int64, 1<<10)
		for r := 0; r < rows; r++ {
			var sb strings.Builder
			sb.WriteString(k1.Raw[r])
			sb.WriteString("\x1f")
			sb.WriteString(k2.Raw[r])
			keys[sb.String()]++
		}
		if len(keys) != benchKeyDistinct {
			b.Fatalf("distinct = %d, want %d", len(keys), benchKeyDistinct)
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkBatchUniquenessKeysHashed drives the production uniqueness
// state over the same batch: scratch-buffer keys, 64-bit hash probing,
// strings materialized only on first insertion.
func BenchmarkBatchUniquenessKeysHashed(b *testing.B) {
	batch := benchKeyBatch()
	check := dqruntime.UniquenessCheck{Fields: []string{"k1", "k2"}, MaxExact: -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := check.NewStates(1, 3)[0]
		st.ObserveBatch(1, batch)
		f := st.Finding()
		if f.Violations != benchRecords-benchKeyDistinct {
			b.Fatalf("violations = %d, want %d", f.Violations, benchRecords-benchKeyDistinct)
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

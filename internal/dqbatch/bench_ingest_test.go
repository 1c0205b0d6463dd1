// Benchmarks for ingest: decode-only runs in fixed and shuffled key
// order and on perfbench's record shape, end-to-end engine runs over a
// real NDJSON and CSV file, and the uniqueness key handling before/after
// the hashed-table rewrite.
// scripts/bench.sh parses them into BENCH_batch.json ratio keys
// (file_csv_vs_ndjson, uniqueness_key_allocs_reduction).
package dqbatch

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/modeldriven/dqwebre/internal/dqruntime"
	"github.com/modeldriven/dqwebre/internal/obs"
)

// benchNDJSONDoc serializes records as NDJSON with the case-study fields
// in a fixed order, then the named extra fields, so every source parses
// identical bytes.
func benchNDJSONDoc(recs []dqruntime.Record, extra ...string) []byte {
	return benchNDJSONDocOrder(recs, nil, extra...)
}

// benchNDJSONDocOrder is benchNDJSONDoc with each record's keys shuffled
// by rng; a nil rng keeps the fixed order.
func benchNDJSONDocOrder(recs []dqruntime.Record, rng *rand.Rand, extra ...string) []byte {
	fields := append([]string{"first_name", "last_name", "email_address", "overall_evaluation", "reviewer_confidence"}, extra...)
	var b bytes.Buffer
	for _, r := range recs {
		if rng != nil {
			rng.Shuffle(len(fields), func(i, j int) { fields[i], fields[j] = fields[j], fields[i] })
		}
		sep := '{'
		for _, f := range fields {
			fmt.Fprintf(&b, "%c%q:%q", sep, f, r[f])
			sep = ','
		}
		b.WriteString("}\n")
	}
	return b.Bytes()
}

// benchDecode drains the benchmark document on one goroutine through the
// source's CutSpan and DecodeSpan into one recycled span buffer and batch,
// as a chunk of Run's pipeline does — cutting and decoding only, no
// validation — so it isolates the ingest cost.
func benchDecode(b *testing.B, doc string) {
	var batch dqruntime.ColumnBatch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := NewNDJSONSource(strings.NewReader(doc))
		var buf []byte // span storage lives as long as the source
		rows := 0
		for {
			batch.Reset()
			sp, err := src.CutSpan(&buf, 256)
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			rows += src.DecodeSpan(sp, &batch, func(int64, error) {
				b.Fatal("malformed line in benchmark document")
			})
		}
		if rows != benchRecords {
			b.Fatalf("decoded %d rows, want %d", rows, benchRecords)
		}
	}
	b.StopTimer()
	reportThroughput(b, int64(b.N)*benchRecords)
}

// BenchmarkDecode cuts records with the scanner and decodes them through
// the fast flat-JSON parser.
func BenchmarkDecode(b *testing.B) {
	benchDecode(b, string(benchNDJSONDoc(benchDataset())))
}

// BenchmarkDecodeShuffled is BenchmarkDecode with each record's keys in a
// random order, so the decoder's predicted field order mostly misses: set
// next to BenchmarkDecode, it prices the miss path against the hit path.
func BenchmarkDecodeShuffled(b *testing.B) {
	benchDecode(b, string(benchNDJSONDocOrder(benchDataset(), rand.New(rand.NewSource(1)))))
}

// BenchmarkDecodeReviews decodes review records shaped like perfbench's
// generator: seven quoted fields holding names, an e-mail address, small
// signed integers, a paper id and an RFC 3339 timestamp, about 195 bytes
// a line. BenchmarkDecode's five fields hold no number-looking strings or
// timestamps, so this one prices the cells perfbench decodes.
func BenchmarkDecodeReviews(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	firsts := []string{"Ada", "Grace", "Barbara", "Edsger", "Donald", "Frances", "Tony", "Leslie"}
	lasts := []string{"Lovelace", "Hopper", "Liskov", "Dijkstra", "Knuth", "Allen", "Hoare", "Lamport"}
	domains := []string{"uclm.es", "example.org", "univ.edu", "lab.example.com", "conf.example.net"}
	now := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var doc bytes.Buffer
	for i := 0; i < benchRecords; i++ {
		fmt.Fprintf(&doc, `{"first_name":%q,"last_name":%q,"email_address":"r%d.%d@%s","overall_evaluation":"%d","reviewer_confidence":"%d","paper_id":"%d","submitted_at":%q}`+"\n",
			firsts[rng.Intn(len(firsts))], lasts[rng.Intn(len(lasts))], 524287, i, domains[i%len(domains)],
			rng.Intn(7)-3, rng.Intn(6), 1+rng.Intn(5000),
			now.Add(-time.Duration(rng.Int63n(int64(160*time.Hour)))).Format(time.RFC3339))
	}
	benchDecode(b, doc.String())
}

// benchCSVDoc serializes records as CSV under a header of the
// case-study fields, in benchNDJSONDoc's order.
func benchCSVDoc(recs []dqruntime.Record) []byte {
	fields := []string{"first_name", "last_name", "email_address", "overall_evaluation", "reviewer_confidence"}
	var b bytes.Buffer
	b.WriteString(strings.Join(fields, ",") + "\n")
	for _, r := range recs {
		for i, f := range fields {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(r[f])
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// benchFile runs the full engine over doc written to a real on-disk file
// named name, opened through OpenFileSource as `dqwebre batch -in` does.
func benchFile(b *testing.B, name string, doc []byte) {
	v := benchValidator(b)
	path := filepath.Join(b.TempDir(), name)
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		b.Fatal(err)
	}
	opts := Options{Workers: 2, Registry: obs.NewRegistry()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, closer, err := OpenFileSource(path, "")
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

// BenchmarkBatchFile runs the engine over an NDJSON file: the scanner
// cutting spans on the producer, the flat-JSON decoder in the pool.
func BenchmarkBatchFile(b *testing.B) {
	benchFile(b, "bench.ndjson", benchNDJSONDoc(benchDataset()))
}

// BenchmarkBatchFileCSV reads the same records as a CSV file: the CSV
// cutter on the producer, csv.Reader per span in the decode pool. Set
// next to BenchmarkBatchFile, it prices CSV ingest against NDJSON's.
func BenchmarkBatchFileCSV(b *testing.B) {
	benchFile(b, "bench.csv", benchCSVDoc(benchDataset()))
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

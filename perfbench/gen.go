package main

import (
	"bufio"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"strconv"
	"time"
)

// evalNow is the fixed evaluation clock of the timeliness check; the
// generator dates records relative to it, so the stale and future counts
// are exact on any day the benchmark runs.
var evalNow = time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)

// freshness is the timeliness check's window list; its largest entry is
// the oldest acceptable age.
var freshness = []time.Duration{24 * time.Hour, 168 * time.Hour}

// recordSpec shapes one generated NDJSON dataset of EasyChair reviews.
// Every defect count is exact: the generator plants them at seeded
// positions, and the oracle expects exactly these numbers in the report.
type recordSpec struct {
	Records    int // records that decode (malformed lines come on top)
	Malformed  int // lines that are not valid JSON objects
	Missing    int // records without first_name: Completeness fails
	OutOfRange int // records with reviewer_confidence outside [0,5]: Precision fails
	Emails     int // distinct email addresses, assigned round-robin (0 = one per record)
	Papers     int // size of the paper reference set
	Dangling   int // records whose paper_id is not in the reference set
	Stale      int // records older than the largest freshness window
	Future     int // records dated beyond the timeliness skew tolerance
}

// truth is what a correct batch report says about a dataset.
type truth struct {
	Records, Passed, Failed, Malformed int64
	Duplicates, Dangling, Untimely     int64
}

func (s recordSpec) truth() truth {
	failed := int64(s.Missing + s.OutOfRange)
	dups := int64(0)
	if s.Emails > 0 {
		dups = int64(s.Records - s.Emails)
	}
	return truth{
		Records:    int64(s.Records),
		Passed:     int64(s.Records) - failed,
		Failed:     failed,
		Malformed:  int64(s.Malformed),
		Duplicates: dups,
		Dangling:   int64(s.Dangling),
		Untimely:   int64(s.Stale + s.Future),
	}
}

var (
	firstNames = []string{"Ada", "Grace", "Barbara", "Edsger", "Donald", "Frances", "Tony", "Leslie",
		"Margaret", "Niklaus", "Radia", "Ken", "Shafi", "John", "Jean", "Alan"}
	lastNames = []string{"Lovelace", "Hopper", "Liskov", "Dijkstra", "Knuth", "Allen", "Hoare",
		"Lamport", "Hamilton", "Wirth", "Perlman", "Thompson", "Goldwasser", "Backus", "Sammet", "Turing"}
	domains = []string{"uclm.es", "example.org", "univ.edu", "lab.example.com", "conf.example.net"}
)

// defect kinds, assigned to distinct records.
const (
	kindGood = iota
	kindMissing
	kindOutOfRange
	kindDangling
	kindStale
	kindFuture
)

// writeRecords writes spec's dataset as NDJSON to w.
func writeRecords(w io.Writer, spec recordSpec, rng *rand.Rand) error {
	kinds := make([]uint8, spec.Records)
	perm := rng.Perm(spec.Records)
	at := 0
	for _, d := range []struct {
		n    int
		kind uint8
	}{{spec.Missing, kindMissing}, {spec.OutOfRange, kindOutOfRange}, {spec.Dangling, kindDangling},
		{spec.Stale, kindStale}, {spec.Future, kindFuture}} {
		for i := 0; i < d.n; i++ {
			kinds[perm[at]] = d.kind
			at++
		}
	}
	lines := spec.Records + spec.Malformed
	bad := make(map[int]bool, spec.Malformed)
	for _, i := range rng.Perm(lines)[:spec.Malformed] {
		bad[i] = true
	}
	emailSalt := rng.Intn(1 << 20)
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 256)
	rec := 0
	for line := 0; line < lines; line++ {
		if bad[line] {
			if line%2 == 0 {
				buf = append(buf[:0], `{"first_name":"Ada","last_name":`...)
			} else {
				buf = append(buf[:0], `review text without any JSON framing`...)
			}
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
			continue
		}
		buf = appendRecord(buf[:0], rec, kinds[rec], spec, emailSalt, rng)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		rec++
	}
	return bw.Flush()
}

// appendRecord renders record i as one NDJSON line.
func appendRecord(buf []byte, i int, kind uint8, spec recordSpec, emailSalt int, rng *rand.Rand) []byte {
	email := i
	if spec.Emails > 0 {
		email = i % spec.Emails
	}
	confidence := strconv.Itoa(rng.Intn(6))
	if kind == kindOutOfRange {
		confidence = strconv.Itoa(6 + rng.Intn(4))
	}
	paper := 1 + rng.Intn(spec.Papers)
	if kind == kindDangling {
		paper = spec.Papers + 1 + rng.Intn(1000)
	}
	age := time.Duration(rng.Int63n(int64(160 * time.Hour)))
	switch kind {
	case kindStale:
		age = 170*time.Hour + time.Duration(rng.Int63n(int64(100*time.Hour)))
	case kindFuture:
		age = -time.Hour - time.Duration(rng.Int63n(int64(24*time.Hour)))
	}
	last := lastNames[rng.Intn(len(lastNames))]
	buf = append(buf, '{')
	if kind != kindMissing {
		buf = append(buf, `"first_name":"`...)
		buf = append(buf, firstNames[rng.Intn(len(firstNames))]...)
		buf = append(buf, `",`...)
	}
	buf = append(buf, `"last_name":"`...)
	buf = append(buf, last...)
	buf = append(buf, `","email_address":"`...)
	buf = fmt.Appendf(buf, "r%d.%d@%s", emailSalt, email, domains[email%len(domains)])
	buf = append(buf, `","overall_evaluation":"`...)
	buf = strconv.AppendInt(buf, int64(rng.Intn(7)-3), 10)
	buf = append(buf, `","reviewer_confidence":"`...)
	buf = append(buf, confidence...)
	buf = append(buf, `","paper_id":"`...)
	buf = strconv.AppendInt(buf, int64(paper), 10)
	buf = append(buf, `","submitted_at":"`...)
	buf = evalNow.Add(-age).AppendFormat(buf, time.RFC3339)
	buf = append(buf, "\"}\n"...)
	return buf
}

// writePapers writes the paper reference set, ids 1..n, as NDJSON.
func writePapers(w io.Writer, n int, rng *rand.Rand) error {
	bw := bufio.NewWriter(w)
	for id := 1; id <= n; id++ {
		fmt.Fprintf(bw, `{"paper_id":"%d","title":"Paper %d","track":"%d"}`+"\n", id, rng.Intn(1<<30), rng.Intn(4))
	}
	return bw.Flush()
}

// createHashed creates path and writes to it through fill, feeding every
// byte into sum so the run can print a checksum of its inputs.
func createHashed(path string, sum hash.Hash, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(io.MultiWriter(f, sum)); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

package dqruntime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// Adversarial tests for the cross-record fast paths: blank keys decided
// from cell kinds, the reference set probed by hash, the hand RFC 3339
// parser and the bounded selection of duplicated keys. Each fast path is
// held to a slow oracle written from the check's contract.

// observeChunks cuts recs into batches at random boundaries, folds them
// into n states in a shuffled order, merges and renders.
func observeChunks(c StatefulCheck, recs []Record, n, maxDetails int, rng *rand.Rand) CrossFinding {
	states := c.NewStates(n, maxDetails)
	type chunk struct {
		base int64
		b    *ColumnBatch
	}
	var chunks []chunk
	for lo := 0; lo < len(recs); {
		hi := min(lo+1+rng.Intn(32), len(recs))
		b := &ColumnBatch{}
		b.Columnarize(recs[lo:hi])
		chunks = append(chunks, chunk{int64(lo + 1), b})
		lo = hi
	}
	rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	for _, ch := range chunks {
		states[rng.Intn(n)].ObserveBatch(ch.base, ch.b)
	}
	return mergeStates(states)
}

// referentialOracle is the referential finding computed the plain way:
// a record's key parts are its raw values, the key is blank when every
// part is missing or trims to "", and a non-blank key resolves by a
// lookup in ref.
func referentialOracle(c ReferentialCheck, recs []Record, maxDetails int) CrossFinding {
	f := CrossFinding{Check: c.Name(), Characteristic: c.Characteristic(), Records: int64(len(recs))}
	type miss struct{ count, first int64 }
	missing := map[string]*miss{}
	var blanks, misses int64
	for i, r := range recs {
		blank := true
		for _, fld := range c.Fields {
			if strings.TrimSpace(r[fld]) != "" {
				blank = false
			}
		}
		if blank {
			blanks++
			continue
		}
		key := KeyOf(c.Fields, r)
		if _, ok := c.Ref[key]; ok {
			continue
		}
		misses++
		if m := missing[key]; m != nil {
			m.count++
		} else {
			missing[key] = &miss{1, int64(i + 1)}
		}
	}
	f.Violations = misses
	if !c.Optional {
		f.Violations += blanks
		if blanks > 0 {
			f.Details = append(f.Details, fmt.Sprintf("%d records with blank key", blanks))
		}
	}
	keys := make([]string, 0, len(missing))
	for k := range missing {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	keys = keys[:min(len(keys), maxDetails)]
	var shown int64
	for _, k := range keys {
		m := missing[k]
		shown += m.count
		f.Details = append(f.Details, fmt.Sprintf("key %q not in %s (%d records, first record %d)",
			displayKey(k), c.RefName, m.count, m.first))
	}
	if rest := misses - shown; len(keys) > 0 && rest > 0 {
		f.Details = append(f.Details, fmt.Sprintf("... and %d more dangling records", rest))
	}
	f.Score = 1
	if f.Records > 0 {
		f.Score = float64(f.Records-f.Violations) / float64(f.Records)
	}
	f.Passed = f.Violations == 0
	return f
}

// randomKeyPart draws a key part from a small alphabet with spaces,
// Unicode spaces and multi-byte letters, so keys collide, differ only in
// length, and are sometimes blank.
func randomKeyPart(rng *rand.Rand) string {
	alphabet := []string{"a", "b", "7", " ", "\u00a0", "é", "\t", "ß", "-"}
	var sb strings.Builder
	for n := rng.Intn(5); n > 0; n-- {
		sb.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return sb.String()
}

// TestReferentialMatchesMapOracle: for random reference sets, records,
// key widths, chunkings and state counts, the hash-probed referential
// check reports exactly what the plain map lookup does.
func TestReferentialMatchesMapOracle(t *testing.T) {
	prop := func(seed int64, nStates, maxDetails uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		fields := []string{"a", "b"}[:1+rng.Intn(2)]
		randomRecord := func() Record {
			r := Record{}
			for _, f := range fields {
				if rng.Intn(6) > 0 {
					r[f] = randomKeyPart(rng)
				}
			}
			return r
		}
		ref := map[string]struct{}{}
		for n := rng.Intn(40); n > 0; n-- {
			ref[KeyOf(fields, randomRecord())] = struct{}{}
		}
		recs := make([]Record, rng.Intn(200))
		for i := range recs {
			recs[i] = randomRecord()
		}
		c := ReferentialCheck{Fields: fields, Ref: ref, RefName: "refs", Optional: rng.Intn(2) == 0}
		details := int(maxDetails % 5)
		want := referentialOracle(c, recs, details)
		got := observeChunks(c, recs, 1+int(nStates%5), details, rng)
		if !reflect.DeepEqual(want, got) {
			t.Logf("fields %v, %d refs:\n  oracle %+v\n  check  %+v", fields, len(ref), want, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestReferentialBlankKeys pins which keys are blank: missing, empty and
// whitespace-only cells, Unicode spaces included, and an absent key
// column; a multi-field key with one blank part is not blank, and a cell
// holding U+001F (the multi-field key separator) is an ordinary key.
func TestReferentialBlankKeys(t *testing.T) {
	one := ReferentialCheck{Fields: []string{"fk"}, Ref: map[string]struct{}{"k": {}}, RefName: "refs"}
	recs := []Record{
		{"fk": "\u00a0"}, {"fk": "\u2003"}, {"fk": "\u0085"}, {"fk": " \t\u00a0 "}, {"fk": ""}, {},
		{"other": "k"}, {"fk": "k"}, {"fk": " \x1f "},
	}
	f := observeAll(one.NewStates(2, 5), recs)
	want := []string{"7 records with blank key", `key " ,  " not in refs (1 records, first record 9)`}
	if f.Violations != 8 || !reflect.DeepEqual(f.Details, want) {
		t.Fatalf("finding = %+v", f)
	}

	// No record carries the key field: the column is absent from every
	// batch.
	f = observeAll(one.NewStates(1, 5), []Record{{"x": "1"}, {"y": "k"}})
	if f.Violations != 2 || !reflect.DeepEqual(f.Details, []string{"2 records with blank key"}) {
		t.Fatalf("absent column: finding = %+v", f)
	}

	two := ReferentialCheck{Fields: []string{"a", "b"}, Ref: map[string]struct{}{"x\x1fy": {}}, RefName: "refs"}
	f = observeAll(two.NewStates(2, 5), []Record{
		{"a": "x", "b": "y"}, {"a": " ", "b": "y"}, {"a": "x"}, {"a": "\u00a0", "b": "\u2003"}, {"b": ""},
	})
	want = []string{
		"2 records with blank key",
		`key " , y" not in refs (1 records, first record 2)`,
		`key "x, " not in refs (1 records, first record 3)`,
	}
	if f.Violations != 4 || !reflect.DeepEqual(f.Details, want) {
		t.Fatalf("two fields: finding = %+v", f)
	}
}

// TestUniquenessBoundedSelection: the single pass that keeps the
// maxDetails smallest duplicated keys reports what sorting every
// duplicated key and taking the first maxDetails does, for 0, 1 and 3.
func TestUniquenessBoundedSelection(t *testing.T) {
	prop := func(seed int64, nStates uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, rng.Intn(300))
		counts := map[string]int64{}
		for i := range recs {
			k := fmt.Sprintf("k%d", rng.Intn(1+rng.Intn(200)))
			recs[i] = Record{"id": k}
			counts[k]++
		}
		var dups []string
		for k, n := range counts {
			if n > 1 {
				dups = append(dups, k)
			}
		}
		sort.Strings(dups)
		for _, maxDetails := range []int{0, 1, 3} {
			var want []string
			for _, k := range dups[:min(len(dups), maxDetails)] {
				want = append(want, fmt.Sprintf("key %q appears %d times", k, counts[k]))
			}
			if extra := len(dups) - maxDetails; extra > 0 {
				want = append(want, fmt.Sprintf("... and %d more duplicated keys", extra))
			}
			c := UniquenessCheck{Fields: []string{"id"}}
			got := observeChunks(c, recs, 1+int(nStates%5), maxDetails, rng)
			if !reflect.DeepEqual(want, got.Details) || got.Violations != int64(len(recs)-len(counts)) {
				t.Logf("maxDetails %d:\n  sorted  %q\n  bounded %q (%d violations)", maxDetails, want, got.Details, got.Violations)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestDaysSinceEpoch holds the civil-date arithmetic to package time over
// every day of two 400-year cycles from year 0, of 1900–2100 and of the
// last four centuries before 10000.
func TestDaysSinceEpoch(t *testing.T) {
	for _, span := range [][2]int{{0, 800}, {1900, 2100}, {9600, 10000}} {
		for d := time.Date(span[0], 1, 1, 0, 0, 0, 0, time.UTC); d.Year() < span[1]; d = d.Add(24 * time.Hour) {
			y, m, day := d.Date()
			if got := daysSinceEpoch(y, int(m), day); got*86400 != d.Unix() {
				t.Fatalf("daysSinceEpoch(%d, %d, %d) = %d, want %d", y, m, day, got, d.Unix()/86400)
			}
		}
	}
}

// FuzzParseTimestamp holds the hand RFC 3339 parser to time.Parse: an
// input the hand parser accepts time.Parse accepts too, as the same
// instant; parseTimestamp (hand parser, then time.Parse) accepts and
// rejects exactly what time.Parse does; and the age the timeliness check
// derives equals asOf.Sub of the parsed time, clamped far from asOf.
func FuzzParseTimestamp(f *testing.F) {
	for _, s := range []string{
		"2025-06-01T12:00:00Z", "2024-02-29T23:59:59Z", "2023-02-29T00:00:00Z", "2000-02-29T00:00:00Z",
		"1900-02-29T00:00:00Z", "0000-01-01T00:00:00Z", "0000-02-29T12:00:00+01:00", "9999-12-31T23:59:59Z",
		"2025-06-01T24:00:00Z", "2025-06-01T23:59:60Z", "2025-06-01T7:23:11Z", "2025-06-01T07:23:11,5Z",
		"2025-06-01T07:23:11.1Z", "2025-06-01T07:23:11.12Z", "2025-06-01T07:23:11.123Z",
		"2025-06-01T07:23:11.1234Z", "2025-06-01T07:23:11.12345Z", "2025-06-01T07:23:11.123456Z",
		"2025-06-01T07:23:11.1234567Z", "2025-06-01T07:23:11.12345678Z", "2025-06-01T07:23:11.123456789Z",
		"2025-06-01T07:23:11.1234567891Z", "2025-06-01T07:23:11+00:00", "2025-06-01T07:23:11-23:59",
		"2025-06-01T07:23:11+24:00", "2025-06-01T07:23:11+05:60", "2025-06-01t07:23:11Z",
		"2025-06-01T07:23:11z", "2025-06-01T07:23:11", "2025-06-01T07:23:11.Z", "2025-06-01T07:23:11+0100",
		"2025-6-01T07:23:11Z", "2025-13-01T00:00:00Z", "2025-00-10T00:00:00Z", "2025-04-31T00:00:00Z",
		" 2025-06-01T07:23:11Z", "", "yesterday",
	} {
		f.Add(s)
	}
	asOf := time.Date(2026, 5, 30, 12, 0, 0, 0, time.UTC)
	st := TimelinessCheck{Field: "ts", Now: func() time.Time { return asOf }}.NewStates(1, 0)[0].(*timelinessState)
	f.Fuzz(func(t *testing.T, v string) {
		want, err := time.Parse(time.RFC3339, v)
		if sec, nsec, ok := parseRFC3339(v); ok {
			if err != nil {
				t.Fatalf("parseRFC3339 accepts %q, time.Parse rejects it: %v", v, err)
			}
			if sec != want.Unix() || nsec != int64(want.Nanosecond()) {
				t.Fatalf("parseRFC3339(%q) = %d.%09d, time.Parse gives %d.%09d", v, sec, nsec, want.Unix(), want.Nanosecond())
			}
		}
		sec, nsec, ok := parseTimestamp(v)
		if ok != (err == nil) {
			t.Fatalf("parseTimestamp(%q) ok = %v, time.Parse error %v", v, ok, err)
		}
		if !ok {
			return
		}
		if sec != want.Unix() || nsec != int64(want.Nanosecond()) {
			t.Fatalf("parseTimestamp(%q) = %d.%09d, time.Parse gives %d.%09d", v, sec, nsec, want.Unix(), want.Nanosecond())
		}
		if age, _ := st.ageOf(v); age != asOf.Sub(want) {
			t.Fatalf("age of %q = %v, want %v", v, age, asOf.Sub(want))
		}
	})
}

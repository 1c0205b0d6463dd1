package dqruntime

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// observeRow folds one record into st as a one-row batch; ordinal is its
// 1-based input position.
func observeRow(st CheckState, ordinal int64, r Record) {
	var b ColumnBatch
	b.Columnarize([]Record{r})
	st.ObserveBatch(ordinal, &b)
}

// observeAll folds records into states round-robin — a deterministic stand-in
// for the engine's arbitrary chunk assignment — then merges and renders.
func observeAll(states []CheckState, recs []Record) CrossFinding {
	for i, r := range recs {
		observeRow(states[i%len(states)], int64(i+1), r)
	}
	return mergeStates(states)
}

// mergeStates folds every state into the first and renders the finding.
func mergeStates(states []CheckState) CrossFinding {
	for _, o := range states[1:] {
		states[0].Merge(o)
	}
	return states[0].Finding()
}

func TestUniquenessExact(t *testing.T) {
	c := UniquenessCheck{Fields: []string{"id"}}
	recs := []Record{
		{"id": "a"}, {"id": "b"}, {"id": "a"}, {"id": "c"}, {"id": "a"}, {"id": "b"},
	}
	f := observeAll(c.NewStates(3, 10), recs)
	if f.Records != 6 || f.Violations != 3 || f.Passed || f.Approximate {
		t.Fatalf("finding = %+v", f)
	}
	if want := float64(3) / 6; f.Score != want {
		t.Fatalf("score = %v, want %v", f.Score, want)
	}
	if len(f.Details) != 2 || !strings.Contains(f.Details[0], `"a" appears 3 times`) ||
		!strings.Contains(f.Details[1], `"b" appears 2 times`) {
		t.Fatalf("details = %v", f.Details)
	}
}

func TestUniquenessMultiField(t *testing.T) {
	c := UniquenessCheck{Fields: []string{"a", "b"}}
	recs := []Record{
		{"a": "x", "b": "1"}, {"a": "x", "b": "2"}, {"a": "x", "b": "1"},
	}
	f := observeAll(c.NewStates(2, 10), recs)
	if f.Violations != 1 {
		t.Fatalf("finding = %+v", f)
	}
	if !strings.Contains(f.Details[0], `"x, 1"`) {
		t.Fatalf("details = %v", f.Details)
	}
}

func TestUniquenessDetailsCapped(t *testing.T) {
	c := UniquenessCheck{Fields: []string{"id"}}
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs, Record{"id": fmt.Sprintf("k%02d", i)}, Record{"id": fmt.Sprintf("k%02d", i)})
	}
	f := observeAll(c.NewStates(2, 3), recs)
	if f.Violations != 10 {
		t.Fatalf("finding = %+v", f)
	}
	// 3 keys shown plus the "and N more" line.
	if len(f.Details) != 4 || !strings.Contains(f.Details[3], "7 more duplicated keys") {
		t.Fatalf("details = %v", f.Details)
	}
}

// TestUniquenessBloomDeterministic pins the switchover rule: past MaxExact
// distinct keys the finding is approximate, and — because Bloom bits union
// bitwise — identical for any shard count.
func TestUniquenessBloomDeterministic(t *testing.T) {
	c := UniquenessCheck{Fields: []string{"id"}, MaxExact: 8, BloomBits: 1 << 12}
	var recs []Record
	for i := 0; i < 200; i++ {
		recs = append(recs, Record{"id": fmt.Sprintf("key-%d", i%50)})
	}
	single := observeAll(c.NewStates(1, 5), recs)
	if !single.Approximate {
		t.Fatalf("expected approximate finding, got %+v", single)
	}
	if single.Records != 200 {
		t.Fatalf("records = %d", single.Records)
	}
	// The estimate must be in the ballpark of the true 50 distinct keys.
	distinct := single.Records - single.Violations
	if distinct < 40 || distinct > 60 {
		t.Fatalf("estimated %d distinct keys, true value 50", distinct)
	}
	for _, workers := range []int{2, 3, 8} {
		sharded := observeAll(c.NewStates(workers, 5), recs)
		if !reflect.DeepEqual(single, sharded) {
			t.Fatalf("workers=%d finding diverged:\n  single  %+v\n  sharded %+v", workers, single, sharded)
		}
	}
}

// TestUniquenessExactStaysExactWhenSharded pins the other side of the
// rule: a dataset under MaxExact distinct keys reports exactly, even when
// per-shard maps never individually approach the cap.
func TestUniquenessExactStaysExactWhenSharded(t *testing.T) {
	c := UniquenessCheck{Fields: []string{"id"}, MaxExact: 100}
	var recs []Record
	for i := 0; i < 180; i++ {
		recs = append(recs, Record{"id": fmt.Sprintf("key-%d", i%90)})
	}
	for _, workers := range []int{1, 4} {
		f := observeAll(c.NewStates(workers, 3), recs)
		if f.Approximate || f.Violations != 90 {
			t.Fatalf("workers=%d finding = %+v", workers, f)
		}
	}
}

// TestUniquenessPermutationProperty is the quick property the issue asks
// for: merged sharded state equals the single-shard result for any record
// permutation and any shard assignment.
func TestUniquenessPermutationProperty(t *testing.T) {
	prop := func(seed int64, nShards uint8, maxExact uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{"k": fmt.Sprintf("v%d", rng.Intn(30))}
		}
		c := UniquenessCheck{Fields: []string{"k"}, MaxExact: 5 + int(maxExact%40), BloomBits: 1 << 10}
		want := observeAll(c.NewStates(1, 4), recs)

		shuffled := append([]Record(nil), recs...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		states := c.NewStates(1+int(nShards%7), 4)
		for i, r := range shuffled {
			observeRow(states[rng.Intn(len(states))], int64(i+1), r)
		}
		merged := states[0]
		for _, o := range states[1:] {
			merged.Merge(o)
		}
		return reflect.DeepEqual(want, merged.Finding())
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("permutation property failed: %v", err)
	}
}

// checkShardingPermutation is the sharding property for any stateful
// check: whatever order the records arrive in and however they split
// across 1–7 states, the merged finding deep-equals one state's, details
// and first-record ordinals included. It runs twice per input: one-row
// batches in a shuffled order with each record keeping its own ordinal,
// and chunks cut at random boundaries and observed in a shuffled order.
// Four details per state keep bounded tallies near their cap.
func checkShardingPermutation(t *testing.T, c StatefulCheck, gen func(*rand.Rand) Record) {
	t.Helper()
	prop := func(seed int64, nStates uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]Record, 20+rng.Intn(100))
		for i := range recs {
			recs[i] = gen(rng)
		}
		want := observeAll(c.NewStates(1, 4), recs)
		n := 1 + int(nStates%7)

		states := c.NewStates(n, 4)
		for _, i := range rng.Perm(len(recs)) {
			observeRow(states[rng.Intn(n)], int64(i+1), recs[i])
		}
		if got := mergeStates(states); !reflect.DeepEqual(want, got) {
			t.Logf("one-row batches over %d states:\n  single  %+v\n  sharded %+v", n, want, got)
			return false
		}

		type chunk struct {
			base int64
			b    *ColumnBatch
		}
		var chunks []chunk
		for lo := 0; lo < len(recs); {
			hi := min(lo+1+rng.Intn(16), len(recs))
			b := &ColumnBatch{}
			b.Columnarize(recs[lo:hi])
			chunks = append(chunks, chunk{int64(lo + 1), b})
			lo = hi
		}
		rng.Shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
		states = c.NewStates(n, 4)
		for _, ch := range chunks {
			states[rng.Intn(n)].ObserveBatch(ch.base, ch.b)
		}
		if got := mergeStates(states); !reflect.DeepEqual(want, got) {
			t.Logf("ObserveBatch over %d states:\n  single  %+v\n  sharded %+v", n, want, got)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("%s sharding property failed: %v", c.Name(), err)
	}
}

func TestReferentialPermutationProperty(t *testing.T) {
	ref := map[string]struct{}{}
	for i := 0; i < 10; i++ {
		ref[KeyOf([]string{"fk", "part"}, Record{"fk": fmt.Sprintf("k%d", i), "part": "p"})] = struct{}{}
	}
	gen := func(rng *rand.Rand) Record {
		r := Record{}
		switch rng.Intn(10) {
		case 0: // both key fields missing: a blank key
		case 1:
			r["fk"], r["part"] = " ", ""
		default:
			r["fk"] = fmt.Sprintf("k%d", rng.Intn(30))
			if rng.Intn(4) > 0 {
				r["part"] = "p"
			}
		}
		return r
	}
	for _, optional := range []bool{false, true} {
		checkShardingPermutation(t, ReferentialCheck{
			Fields: []string{"fk", "part"}, Ref: ref, RefName: "refs", Optional: optional,
		}, gen)
	}
}

func TestTimelinessPermutationProperty(t *testing.T) {
	asOf := time.Date(2026, 5, 30, 12, 0, 0, 0, time.UTC)
	gen := func(rng *rand.Rand) Record {
		switch rng.Intn(10) {
		case 0:
			return Record{}
		case 1:
			return Record{"ts": " "}
		case 2:
			return Record{"ts": "yesterday"}
		}
		// Ages from ten minutes ahead of the clock to four days back, in
		// whole minutes so equal timestamps recur.
		age := time.Duration(rng.Intn(4*24*60+10)-10) * time.Minute
		return Record{"ts": asOf.Add(-age).Format(time.RFC3339)}
	}
	for _, optional := range []bool{false, true} {
		checkShardingPermutation(t, TimelinessCheck{
			Field:    "ts",
			Windows:  []time.Duration{24 * time.Hour, time.Hour, 72 * time.Hour},
			MaxSkew:  time.Minute,
			Now:      func() time.Time { return asOf },
			Optional: optional,
		}, gen)
	}
}

func TestReferentialCheck(t *testing.T) {
	c := ReferentialCheck{
		Fields:  []string{"customer_id"},
		Ref:     map[string]struct{}{"c1": {}, "c2": {}},
		RefName: "customers",
	}
	recs := []Record{
		{"customer_id": "c1"}, {"customer_id": "zz"}, {"customer_id": "c2"},
		{"customer_id": ""}, {"customer_id": "zz"}, {"customer_id": "aa"},
	}
	f := observeAll(c.NewStates(3, 5), recs)
	if f.Records != 6 || f.Violations != 4 || f.Passed {
		t.Fatalf("finding = %+v", f)
	}
	want := []string{
		"1 records with blank key",
		`key "aa" not in customers (1 records, first record 6)`,
		`key "zz" not in customers (2 records, first record 2)`,
	}
	if !reflect.DeepEqual(f.Details, want) {
		t.Fatalf("details = %v", f.Details)
	}

	opt := c
	opt.Optional = true
	fo := observeAll(opt.NewStates(2, 5), recs)
	if fo.Violations != 3 {
		t.Fatalf("optional finding = %+v", fo)
	}
}

// TestReferentialDetailsCapDeterministic pins keyTally's bounded
// retention: the lexicographically smallest keys survive with exact
// counts, however the records are sharded.
func TestReferentialDetailsCapDeterministic(t *testing.T) {
	c := ReferentialCheck{Fields: []string{"fk"}, Ref: map[string]struct{}{}, RefName: "ref"}
	var recs []Record
	for i := 0; i < 120; i++ {
		recs = append(recs, Record{"fk": fmt.Sprintf("m%02d", i%40)})
	}
	single := observeAll(c.NewStates(1, 3), recs)
	for _, workers := range []int{2, 5, 8} {
		sharded := observeAll(c.NewStates(workers, 3), recs)
		if !reflect.DeepEqual(single, sharded) {
			t.Fatalf("workers=%d finding diverged:\n  single  %+v\n  sharded %+v", workers, single, sharded)
		}
	}
	if !strings.Contains(single.Details[0], `"m00" not in ref (3 records`) {
		t.Fatalf("details = %v", single.Details)
	}
	if last := single.Details[len(single.Details)-1]; !strings.Contains(last, "more dangling records") {
		t.Fatalf("details = %v", single.Details)
	}
}

func TestTimelinessCheck(t *testing.T) {
	asOf := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	c := TimelinessCheck{
		Field:   "ts",
		Windows: []time.Duration{7 * 24 * time.Hour, 24 * time.Hour},
		MaxAge:  30 * 24 * time.Hour,
		Now:     func() time.Time { return asOf },
	}
	recs := []Record{
		{"ts": asOf.Add(-time.Hour).Format(time.RFC3339)},           // within both windows
		{"ts": asOf.Add(-3 * 24 * time.Hour).Format(time.RFC3339)},  // within 7d only
		{"ts": asOf.Add(-60 * 24 * time.Hour).Format(time.RFC3339)}, // stale
		{"ts": asOf.Add(time.Hour).Format(time.RFC3339)},            // future beyond skew
		{"ts": asOf.Add(time.Minute).Format(time.RFC3339)},          // within skew, within windows
		{"ts": "garbage"},
		{"ts": ""},
	}
	f := observeAll(c.NewStates(3, 5), recs)
	if f.Records != 7 || f.Violations != 4 || f.Passed {
		t.Fatalf("finding = %+v", f)
	}
	want := []string{
		"within 24h0m0s: 28.6% (2/7)",
		"within 168h0m0s: 42.9% (3/7)",
		"event-time skew min -1h0m0s, max 1440h0m0s",
		"1 records older than 720h0m0s",
		"1 records future-dated beyond 5m0s",
		"1 records with unparsable timestamps",
		"1 records with blank ts",
	}
	if !reflect.DeepEqual(f.Details, want) {
		t.Fatalf("details = %v", f.Details)
	}

	opt := c
	opt.Optional = true
	fo := observeAll(opt.NewStates(2, 5), recs)
	if fo.Violations != 3 || fo.Records != 7 {
		t.Fatalf("optional finding = %+v", fo)
	}
}

// TestTimelinessSkewBeyondDuration pins the skew detail on both sides of
// time.Duration's ±292-year range. Records dated 0000-01-01 and
// 9999-12-31, in two states merged, count as stale and future-dated and
// print their exact ages, not the range's clamped ends. An age within the
// range prints byte for byte what Duration.String prints, at the range's
// ends too, where skew formats the integers itself.
func TestTimelinessSkewBeyondDuration(t *testing.T) {
	asOf := time.Date(2026, 8, 8, 12, 0, 0, 750_000_000, time.UTC)
	c := TimelinessCheck{Field: "ts", Windows: []time.Duration{24 * time.Hour}, Now: func() time.Time { return asOf }}
	f := observeAll(c.NewStates(2, 5), []Record{{"ts": "0000-01-01T00:00:00Z"}, {"ts": "9999-12-31T23:59:59.5Z"}})
	want := []string{
		"within 24h0m0s: 0.0% (0/2)",
		"event-time skew min -69893363h59m58.75s, max 17764836h0m0.75s",
		"1 records older than 24h0m0s",
		"1 records future-dated beyond 5m0s",
	}
	if f.Violations != 2 || !reflect.DeepEqual(f.Details, want) {
		t.Fatalf("finding = %+v", f)
	}

	st := c.NewStates(1, 0)[0].(*timelinessState)
	for _, d := range []time.Duration{math.MaxInt64, math.MinInt64, math.MaxInt64 - time.Second, math.MinInt64 + time.Second,
		time.Hour, -time.Hour, 90*time.Minute + 500*time.Millisecond, 1500 * time.Microsecond, -3, 0} {
		// ev is asOf - d as an instant.
		ev := instant{st.asOfSec - int64(d/time.Second), st.asOfNsec - int64(d%time.Second)}
		if ev.nsec < 0 {
			ev.sec, ev.nsec = ev.sec-1, ev.nsec+int64(time.Second)
		} else if ev.nsec >= int64(time.Second) {
			ev.sec, ev.nsec = ev.sec+1, ev.nsec-int64(time.Second)
		}
		if got := st.skew(ev); got != d.String() {
			t.Errorf("skew of age %d ns = %q, Duration.String gives %q", int64(d), got, d.String())
		}
	}
}

// TestStatefulOneRowWholeBatchParity pins batch-boundary independence at
// the state level: one ObserveBatch over the whole columnarized dataset
// must produce the same finding as one-row batches over the records.
func TestStatefulOneRowWholeBatchParity(t *testing.T) {
	recs := parityRecords(300)
	asOf := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	checks := []StatefulCheck{
		UniquenessCheck{Fields: []string{"a", "n"}},
		UniquenessCheck{Fields: []string{"ts"}, MaxExact: 4, BloomBits: 1 << 10},
		ReferentialCheck{Fields: []string{"b"}, Ref: map[string]struct{}{"42": {}, "abc": {}}},
		TimelinessCheck{Field: "ts", Windows: []time.Duration{24 * time.Hour},
			MaxAge: 365 * 24 * time.Hour, Now: func() time.Time { return asOf }},
	}
	batch := &ColumnBatch{}
	batch.Columnarize(recs)
	for _, sc := range checks {
		rowState := sc.NewStates(1, 4)[0]
		for i, r := range recs {
			observeRow(rowState, int64(i+1), r)
		}
		colState := sc.NewStates(1, 4)[0]
		colState.ObserveBatch(1, batch)
		got, want := colState.Finding(), rowState.Finding()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged:\n  rows    %+v\n  columns %+v", sc.Name(), want, got)
		}
	}
}

func TestKeyTallyEviction(t *testing.T) {
	tl := newKeyTally(2)
	tl.add("m", 5, 1)
	tl.add("z", 1, 1)
	tl.add("a", 9, 1) // evicts z (largest)
	tl.add("z", 2, 1) // dropped: z >= current max "m"
	if got := tl.sortedKeys(); !reflect.DeepEqual(got, []string{"a", "m"}) {
		t.Fatalf("keys = %v", got)
	}
	if tl.keys["a"].first != 9 || tl.keys["m"].first != 5 {
		t.Fatalf("tally = %+v", tl.keys)
	}
}

func TestBloomEstimate(t *testing.T) {
	bf := newBloom(1 << 14)
	for i := 0; i < 1000; i++ {
		bf.insert(fmt.Sprintf("key-%d", i))
		bf.insert(fmt.Sprintf("key-%d", i)) // idempotent
	}
	est := bf.estimateDistinct(1 << 20)
	if est < 900 || est > 1100 {
		t.Fatalf("estimate = %d, want ~1000", est)
	}
}

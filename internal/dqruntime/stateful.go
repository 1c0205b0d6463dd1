package dqruntime

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"github.com/modeldriven/dqwebre/internal/iso25012"
)

// Cross-record checks: where a Check judges one record in isolation, a
// StatefulCheck accumulates state across the whole dataset — uniqueness of
// a key, referential consistency against another dataset, timeliness of
// the record stream — and renders one dataset-level CrossFinding at the
// end. Each worker of a parallel batch owns one private CheckState; the
// engine merges them single-threaded after the pool drains, exactly like
// the per-characteristic shard aggregation. Every state is built so that
// the merged result depends only on the multiset of observed records,
// never on how they were partitioned across workers or interleaved in
// time: counts are integers, selections are post-merge sorted, and the
// Bloom fallback unions bit-for-bit. That is what lets a Workers:8 run
// report byte-identically to a Workers:1 run.

// CrossFinding is the dataset-level outcome of one stateful check.
type CrossFinding struct {
	// Check names the producing check; Characteristic is the ISO/IEC 25012
	// characteristic it measures.
	Check          string                  `json:"check"`
	Characteristic iso25012.Characteristic `json:"characteristic"`
	// Records counts the records observed; Violations how many of them
	// broke the cross-record property.
	Records    int64 `json:"records"`
	Violations int64 `json:"violations"`
	// Score is the fraction of conforming records in [0, 1].
	Score float64 `json:"score"`
	// Passed reports a violation-free dataset.
	Passed bool `json:"passed"`
	// Approximate marks results derived from sketch state (Bloom filter)
	// rather than exact sets; Violations is then an estimate.
	Approximate bool `json:"approximate,omitempty"`
	// Details are human-readable diagnostics, deterministically ordered.
	Details []string `json:"details,omitempty"`
}

// CheckState is one worker's private accumulator for a stateful check.
// ObserveBatch is called only by the owning worker; Merge and Finding run
// single-threaded after the pool drains. Merge must be associative and
// order-independent in effect, so that any shard count and any record
// partition — into states and into batches — yield the same Finding.
type CheckState interface {
	// ObserveBatch folds a columnar batch whose first row has the given
	// 1-based ordinal.
	ObserveBatch(base int64, b *ColumnBatch)
	// Merge folds other (a state created by the same NewStates call) into
	// the receiver.
	Merge(other CheckState)
	// Finding renders the merged dataset-level result.
	Finding() CrossFinding
}

// StatefulCheck is a cross-record check: it mints the per-worker states
// for one batch run. NewStates is called once per run, so implementations
// resolve run-scoped context there — the evaluation clock is read once,
// reference sets are shared read-only across the states.
type StatefulCheck interface {
	// Name identifies the check, e.g. "check_uniqueness".
	Name() string
	// Characteristic is the ISO/IEC 25012 characteristic measured.
	Characteristic() iso25012.Characteristic
	// NewStates creates n independent per-worker states. maxDetails caps
	// the diagnostics retained per state and in the final finding.
	NewStates(n, maxDetails int) []CheckState
}

// keySep joins multi-field key parts; displayKey renders it readably.
const keySep = "\x1f"

func displayKey(k string) string { return strings.ReplaceAll(k, keySep, ", ") }

// KeyOf builds a record's key over the given fields: the single field's
// raw value, or the raw values joined in field order. Missing fields
// contribute the empty string, exactly as a map lookup would.
func KeyOf(fields []string, r Record) string {
	if len(fields) == 1 {
		return r[fields[0]]
	}
	var sb strings.Builder
	for i, f := range fields {
		if i > 0 {
			sb.WriteString(keySep)
		}
		sb.WriteString(r[f])
	}
	return sb.String()
}

// keyCols resolves the key fields' columns for one batch; entries are nil
// for fields no record in the batch carries.
func keyCols(fields []string, b *ColumnBatch, scratch []*Column) []*Column {
	scratch = scratch[:0]
	for _, f := range fields {
		scratch = append(scratch, b.Col(f))
	}
	return scratch
}

// colKeyAt extracts row i's key from the resolved columns, mirroring KeyOf
// on the row's record map (missing column or cell → "").
func colKeyAt(cols []*Column, i int) string {
	if len(cols) == 1 {
		if cols[0] == nil {
			return ""
		}
		return cols[0].Raw[i]
	}
	var sb strings.Builder
	for ci, c := range cols {
		if ci > 0 {
			sb.WriteString(keySep)
		}
		if c != nil {
			sb.WriteString(c.Raw[i])
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Bloom filter: the sketch the uniqueness check degrades to past MaxExact.

// bloomFilter is a fixed-size Bloom filter whose insert is idempotent and
// whose union is a bitwise OR — both independent of insertion order and
// sharding, which keeps the approximate mode deterministic.
type bloomFilter struct {
	words []uint64
	m     uint64 // bit count, always a multiple of 64
}

// bloomHashCount is k, the probe count per key.
const bloomHashCount = 7

func newBloom(bitCount int) *bloomFilter {
	words := (bitCount + 63) / 64
	if words < 1 {
		words = 1
	}
	return &bloomFilter{words: make([]uint64, words), m: uint64(words) * 64}
}

// fnv1a constants and hashes: the 64-bit key hash shared by the Bloom
// filter and the uniqueness table, so a spilled table can re-insert its
// keys into the filter from stored hashes alone, bit-identically to
// inserting the key strings.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1aString(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

func fnv1aBytes(key []byte) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// bloomStride derives the double-hashing stride from h1 with a splitmix64
// finalizer, forced odd so probes never collapse.
func bloomStride(h1 uint64) uint64 {
	h2 := h1
	h2 ^= h2 >> 30
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 27
	h2 *= 0x94d049bb133111eb
	h2 ^= h2 >> 31
	h2 |= 1
	return h2
}

// bloomHash derives the double-hashing pair from FNV-1a plus the splitmix64
// stride.
func bloomHash(key string) (h1, h2 uint64) {
	h1 = fnv1aString(key)
	return h1, bloomStride(h1)
}

func (b *bloomFilter) insert(key string) {
	b.insertHashed(fnv1aString(key))
}

// insertHashed inserts a key by its FNV-1a hash — the same bits insert
// sets for the key itself, which is what keeps a hash-only spill
// deterministic.
func (b *bloomFilter) insertHashed(h1 uint64) {
	h2 := bloomStride(h1)
	for i := uint64(0); i < bloomHashCount; i++ {
		pos := (h1 + i*h2) % b.m
		b.words[pos/64] |= 1 << (pos % 64)
	}
}

// union ORs other into b; both must be the same size.
func (b *bloomFilter) union(other *bloomFilter) {
	for i := range b.words {
		b.words[i] |= other.words[i]
	}
}

// estimateDistinct inverts the expected fill ratio: n ≈ −(m/k)·ln(1 − X/m)
// where X is the set-bit count. A saturated filter returns cap.
func (b *bloomFilter) estimateDistinct(cap int64) int64 {
	var set int
	for _, w := range b.words {
		set += bits.OnesCount64(w)
	}
	if uint64(set) >= b.m {
		return cap
	}
	n := -(float64(b.m) / bloomHashCount) * math.Log(1-float64(set)/float64(b.m))
	est := int64(math.Round(n))
	if est < 0 {
		est = 0
	}
	if est > cap {
		est = cap
	}
	return est
}

// ---------------------------------------------------------------------------
// keyTally: bounded, deterministic retention of offending keys.

// keyCount is one retained key's statistics.
type keyCount struct {
	count int64
	first int64 // smallest observed ordinal
}

// keyTally retains the lexicographically smallest cap keys it has seen,
// with exact counts and first ordinals. Retention is deterministic under
// sharding: once full, the largest key is evicted for any smaller
// newcomer, so the maximum retained key never increases and an evicted key
// can never re-enter. A key in the merged smallest-cap selection was
// therefore retained by every shard that saw it (a shard that evicted it
// held cap smaller keys forever after, pushing it out of the final
// selection), so the reported counts and first ordinals are exact.
type keyTally struct {
	cap  int
	keys map[string]keyCount
	max  string // largest retained key, meaningful when len(keys) > 0
}

func newKeyTally(cap int) *keyTally {
	if cap < 0 {
		cap = 0
	}
	return &keyTally{cap: cap, keys: make(map[string]keyCount, cap)}
}

// add folds one observation of key at ordinal.
func (t *keyTally) add(key string, ordinal, count int64) {
	if t.cap == 0 {
		return
	}
	if kc, ok := t.keys[key]; ok {
		kc.count += count
		if ordinal < kc.first {
			kc.first = ordinal
		}
		t.keys[key] = kc
		return
	}
	if len(t.keys) < t.cap {
		t.keys[key] = keyCount{count: count, first: ordinal}
		if len(t.keys) == 1 || key > t.max {
			t.max = key
		}
		return
	}
	if key >= t.max {
		return
	}
	delete(t.keys, t.max)
	t.keys[key] = keyCount{count: count, first: ordinal}
	t.max = ""
	for k := range t.keys {
		if k > t.max {
			t.max = k
		}
	}
}

// merge folds other into t through the same deterministic retention.
func (t *keyTally) merge(other *keyTally) {
	for k, kc := range other.keys {
		t.add(k, kc.first, kc.count)
	}
}

// sortedKeys returns the retained keys in ascending order.
func (t *keyTally) sortedKeys() []string {
	out := make([]string, 0, len(t.keys))
	for k := range t.keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------------
// uniqTable: open-addressed key counting for the uniqueness check.

// uniqEntry is one slot; count == 0 marks it empty, so hashes are stored
// verbatim (no reserved hash value that would skew the Bloom spill).
type uniqEntry struct {
	hash  uint64
	count int64
	key   string
}

// uniqTable counts key occurrences with open addressing and linear
// probing. Compared to a map[string]int64 it probes by a precomputed
// 64-bit hash, which lets callers look keys up from a byte slice and only
// materialize the string on first insertion — the hot path of a
// high-duplication dataset allocates nothing.
type uniqTable struct {
	entries []uniqEntry
	n       int // occupied slots (distinct keys)
}

// init sizes the table for about hint distinct keys.
func (t *uniqTable) init(hint int) {
	size := 16
	for size*3/4 < hint && size < 1<<62 {
		size <<= 1
	}
	t.entries = make([]uniqEntry, size)
	t.n = 0
}

// growTo widens the table to hold about hint keys in one rehash, skipping
// the intermediate doublings; a no-op when already large enough.
func (t *uniqTable) growTo(hint int) {
	size := len(t.entries)
	for size*3/4 < hint {
		size <<= 1
	}
	if size > len(t.entries) {
		t.rehash(size)
	}
}

// find probes for (h, key): found means entries[idx] holds it; otherwise
// idx is the empty slot where an insert of the key belongs.
func (t *uniqTable) find(h uint64, key string) (idx int, found bool) {
	mask := len(t.entries) - 1
	i := int(h) & mask
	for {
		e := &t.entries[i]
		if e.count == 0 {
			return i, false
		}
		if e.hash == h && e.key == key {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// findBytes is find for a key held as bytes; the e.key == string(key)
// comparison does not allocate.
func (t *uniqTable) findBytes(h uint64, key []byte) (idx int, found bool) {
	mask := len(t.entries) - 1
	i := int(h) & mask
	for {
		e := &t.entries[i]
		if e.count == 0 {
			return i, false
		}
		if e.hash == h && e.key == string(key) {
			return i, true
		}
		i = (i + 1) & mask
	}
}

// insertAt fills the empty slot find returned and keeps the load factor
// under 3/4.
func (t *uniqTable) insertAt(idx int, h uint64, key string, count int64) {
	t.entries[idx] = uniqEntry{hash: h, count: count, key: key}
	t.n++
	if t.n >= len(t.entries)*3/4 {
		t.rehash(len(t.entries) * 2)
	}
}

func (t *uniqTable) rehash(size int) {
	old := t.entries
	t.entries = make([]uniqEntry, size)
	mask := size - 1
	for i := range old {
		e := &old[i]
		if e.count == 0 {
			continue
		}
		j := int(e.hash) & mask
		for t.entries[j].count != 0 {
			j = (j + 1) & mask
		}
		t.entries[j] = *e
	}
}

// ---------------------------------------------------------------------------
// UniquenessCheck

// DefaultMaxExact is the distinct-key cardinality up to which
// UniquenessCheck stays exact before degrading to a Bloom filter.
const DefaultMaxExact = 1 << 17

// DefaultBloomBits sizes the uniqueness Bloom filter (1 MiB per state).
const DefaultBloomBits = 1 << 23

// UniquenessCheck verifies that no two records share a key — the
// cross-record face of the Consistency characteristic ("free from
// contradiction": two records claiming the same identity contradict each
// other). Each worker tracks an exact key-count set until MaxExact
// distinct keys, then spills to a Bloom filter; the merged finding is
// exact whenever the dataset's distinct-key count fits MaxExact
// (regardless of sharding) and flagged Approximate otherwise, with the
// duplicate count estimated from the unioned filter's fill ratio.
type UniquenessCheck struct {
	// Fields are the key fields; a record's key joins their raw values in
	// field order.
	Fields []string
	// MaxExact bounds the exact mode's distinct-key cardinality (per
	// worker and for the merged result). 0 means DefaultMaxExact; negative
	// disables the Bloom fallback entirely (always exact, unbounded).
	MaxExact int
	// BloomBits sizes the approximate mode's Bloom filter in bits, rounded
	// up to a multiple of 64. 0 means DefaultBloomBits.
	BloomBits int
}

// Name returns "check_uniqueness".
func (UniquenessCheck) Name() string { return "check_uniqueness" }

// Characteristic returns Consistency.
func (UniquenessCheck) Characteristic() iso25012.Characteristic { return iso25012.Consistency }

// NewStates mints n per-worker states sharing the check's configuration.
func (c UniquenessCheck) NewStates(n, maxDetails int) []CheckState {
	maxExact := c.MaxExact
	if maxExact == 0 {
		maxExact = DefaultMaxExact
	} else if maxExact < 0 {
		maxExact = math.MaxInt
	}
	bloomBits := c.BloomBits
	if bloomBits == 0 {
		bloomBits = DefaultBloomBits
	}
	// Start the exact tables small; maybePrime widens them after the first
	// chunk when the observed cardinality says the run will need it, so
	// tiny datasets don't pay and large high-cardinality ones skip the
	// intermediate rehashes.
	hint := maxExact
	if hint > 256 {
		hint = 256
	}
	out := make([]CheckState, n)
	for i := range out {
		st := &uniquenessState{
			check:      c,
			maxExact:   maxExact,
			bloomBits:  bloomBits,
			maxDetails: maxDetails,
		}
		st.table.init(hint)
		out[i] = st
	}
	return out
}

// uniquenessState is one worker's accumulator: an exact key-count table
// until maxExact distinct keys, a Bloom filter afterwards. Keys are hashed
// (FNV-1a 64) out of a reused scratch buffer and the key string is only
// materialized the first time it is inserted — repeat observations of a
// key allocate nothing.
type uniquenessState struct {
	check      UniquenessCheck
	maxExact   int
	bloomBits  int
	maxDetails int
	records    int64
	table      uniqTable
	spilled    bool
	bloom      *bloomFilter
	primed     bool
	cols       []*Column // ObserveBatch scratch
	keyBuf     []byte    // multi-field key scratch
}

// addString folds one observation of a key already held as a string (a
// single-field key is the cell's raw value — stored as-is on first
// insertion, since cell strings are immutable).
func (s *uniquenessState) addString(key string) {
	s.records++
	h := fnv1aString(key)
	if s.spilled {
		s.bloom.insertHashed(h)
		return
	}
	idx, found := s.table.find(h, key)
	if found {
		s.table.entries[idx].count++
		return
	}
	if s.table.n >= s.maxExact {
		s.spill()
		s.bloom.insertHashed(h)
		return
	}
	s.table.insertAt(idx, h, key, 1)
}

// addBytes folds one observation of a key built in the scratch buffer; the
// string is materialized only when the key is new.
func (s *uniquenessState) addBytes(key []byte) {
	s.records++
	h := fnv1aBytes(key)
	if s.spilled {
		s.bloom.insertHashed(h)
		return
	}
	idx, found := s.table.findBytes(h, key)
	if found {
		s.table.entries[idx].count++
		return
	}
	if s.table.n >= s.maxExact {
		s.spill()
		s.bloom.insertHashed(h)
		return
	}
	s.table.insertAt(idx, h, string(key), 1)
}

// spill converts the exact set to Bloom form by stored hash (identical
// bits to inserting the key strings). Insertion order is irrelevant
// (inserts are idempotent), so a spill at any point yields the same bits
// as inserting the stream directly.
func (s *uniquenessState) spill() {
	if s.bloom == nil {
		s.bloom = newBloom(s.bloomBits)
	}
	for i := range s.table.entries {
		if e := &s.table.entries[i]; e.count != 0 {
			s.bloom.insertHashed(e.hash)
		}
	}
	s.table.entries = nil
	s.table.n = 0
	s.spilled = true
}

// maybePrime sizes the table from the first chunk's cardinality: when most
// keys so far are distinct, the run is high-cardinality and the table
// jumps straight to a large capacity instead of doubling its way there.
func (s *uniquenessState) maybePrime() {
	if s.primed || s.spilled {
		return
	}
	s.primed = true
	if int64(s.table.n)*2 >= s.records {
		target := s.maxExact
		if target > 1<<14 {
			target = 1 << 14
		}
		s.table.growTo(target)
	}
}

// appendKeyPart extends the scratch buffer with one multi-field key part.
func (s *uniquenessState) appendKeyPart(i int, part string) {
	if i > 0 {
		s.keyBuf = append(s.keyBuf, keySep...)
	}
	s.keyBuf = append(s.keyBuf, part...)
}

// ObserveBatch folds every row's key, extracted column-wise.
func (s *uniquenessState) ObserveBatch(_ int64, b *ColumnBatch) {
	s.cols = keyCols(s.check.Fields, b, s.cols)
	rows := b.Rows()
	if len(s.cols) == 1 {
		c := s.cols[0]
		for i := 0; i < rows; i++ {
			if c == nil {
				s.addString("")
			} else {
				s.addString(c.Raw[i])
			}
		}
	} else {
		for i := 0; i < rows; i++ {
			s.keyBuf = s.keyBuf[:0]
			for ci, c := range s.cols {
				part := ""
				if c != nil {
					part = c.Raw[i]
				}
				s.appendKeyPart(ci, part)
			}
			s.addBytes(s.keyBuf)
		}
	}
	s.maybePrime()
}

// Merge folds other into s. Two exact states merge their tables (the
// approximate decision is deferred to Finding, where the merged
// cardinality is known); once either side spilled, both degrade to the
// unioned filter.
func (s *uniquenessState) Merge(other CheckState) {
	o := other.(*uniquenessState)
	s.records += o.records
	if !s.spilled && !o.spilled {
		for i := range o.table.entries {
			e := &o.table.entries[i]
			if e.count == 0 {
				continue
			}
			idx, found := s.table.find(e.hash, e.key)
			if found {
				s.table.entries[idx].count += e.count
			} else {
				s.table.insertAt(idx, e.hash, e.key, e.count)
			}
		}
		return
	}
	if !s.spilled {
		s.spill()
	}
	if o.spilled {
		s.bloom.union(o.bloom)
	} else {
		for i := range o.table.entries {
			if e := &o.table.entries[i]; e.count != 0 {
				s.bloom.insertHashed(e.hash)
			}
		}
	}
}

// Finding renders the merged result. The mode is a property of the data
// alone: exact iff the dataset's distinct-key count fits MaxExact. (No
// shard spills unless its local cardinality exceeds MaxExact, and a
// merged exact set over MaxExact converts here, so any sharding lands on
// the same side.)
func (s *uniquenessState) Finding() CrossFinding {
	f := CrossFinding{Check: s.check.Name(), Characteristic: s.check.Characteristic(), Records: s.records}
	if !s.spilled && s.table.n > s.maxExact {
		s.spill()
	}
	if s.spilled {
		distinct := s.bloom.estimateDistinct(s.records)
		f.Approximate = true
		f.Violations = s.records - distinct
		if f.Violations < 0 {
			f.Violations = 0
		}
		f.Details = []string{fmt.Sprintf(
			"~%d distinct keys over %d fields (Bloom estimate, %d bits, exact set capped at %d)",
			distinct, len(s.check.Fields), s.bloom.m, s.maxExact)}
	} else {
		f.Violations = s.records - int64(s.table.n)
		var dup []uniqEntry
		for i := range s.table.entries {
			if e := &s.table.entries[i]; e.count > 1 {
				dup = append(dup, *e)
			}
		}
		sort.Slice(dup, func(i, j int) bool { return dup[i].key < dup[j].key })
		shown := dup
		if len(shown) > s.maxDetails {
			shown = shown[:s.maxDetails]
		}
		for _, e := range shown {
			f.Details = append(f.Details, fmt.Sprintf("key %q appears %d times", displayKey(e.key), e.count))
		}
		if extra := len(dup) - len(shown); extra > 0 {
			f.Details = append(f.Details, fmt.Sprintf("... and %d more duplicated keys", extra))
		}
	}
	f.Score = 1
	if s.records > 0 {
		f.Score = float64(s.records-f.Violations) / float64(s.records)
	}
	f.Passed = f.Violations == 0
	return f
}

// ---------------------------------------------------------------------------
// ReferentialCheck

// ReferentialCheck verifies every record's foreign key resolves in a
// reference key set — the `foreign_key` rule of real DQ catalogs, and the
// cross-dataset face of Consistency. The reference set is built in a
// first pass over the reference dataset (see dqbatch.BuildKeySet) and
// shared read-only by every worker state.
type ReferentialCheck struct {
	// Fields are the foreign-key fields in the validated records.
	Fields []string
	// Ref is the reference key set, keyed exactly as KeyOf builds keys.
	Ref map[string]struct{}
	// RefName labels the reference dataset in diagnostics.
	RefName string
	// Optional passes records whose key fields are all blank.
	Optional bool
}

// Name returns "check_referential".
func (ReferentialCheck) Name() string { return "check_referential" }

// Characteristic returns Consistency.
func (ReferentialCheck) Characteristic() iso25012.Characteristic { return iso25012.Consistency }

// NewStates mints n per-worker states sharing the reference set.
func (c ReferentialCheck) NewStates(n, maxDetails int) []CheckState {
	out := make([]CheckState, n)
	for i := range out {
		out[i] = &referentialState{check: c, missing: newKeyTally(maxDetails)}
	}
	return out
}

// referentialState is one worker's accumulator: exact violation counts
// plus a bounded tally of the smallest missing keys.
type referentialState struct {
	check   ReferentialCheck
	records int64
	blanks  int64
	misses  int64
	missing *keyTally
	cols    []*Column // ObserveBatch scratch
}

// blankKey reports a key whose every part trims to the empty string.
func blankKey(key string) bool {
	for _, part := range strings.Split(key, keySep) {
		if strings.TrimSpace(part) != "" {
			return false
		}
	}
	return true
}

func (s *referentialState) add(ordinal int64, key string) {
	s.records++
	if blankKey(key) {
		s.blanks++
		return
	}
	if _, ok := s.check.Ref[key]; ok {
		return
	}
	s.misses++
	s.missing.add(key, ordinal, 1)
}

// ObserveBatch folds every row's foreign key, extracted column-wise.
func (s *referentialState) ObserveBatch(base int64, b *ColumnBatch) {
	s.cols = keyCols(s.check.Fields, b, s.cols)
	rows := b.Rows()
	for i := 0; i < rows; i++ {
		s.add(base+int64(i), colKeyAt(s.cols, i))
	}
}

// Merge folds other into s.
func (s *referentialState) Merge(other CheckState) {
	o := other.(*referentialState)
	s.records += o.records
	s.blanks += o.blanks
	s.misses += o.misses
	s.missing.merge(o.missing)
}

// Finding renders the merged result.
func (s *referentialState) Finding() CrossFinding {
	f := CrossFinding{Check: s.check.Name(), Characteristic: s.check.Characteristic(), Records: s.records}
	f.Violations = s.misses
	if !s.check.Optional {
		f.Violations += s.blanks
	}
	ref := s.check.RefName
	if ref == "" {
		ref = "reference"
	}
	if s.blanks > 0 && !s.check.Optional {
		f.Details = append(f.Details, fmt.Sprintf("%d records with blank key", s.blanks))
	}
	keys := s.missing.sortedKeys()
	for _, k := range keys {
		kc := s.missing.keys[k]
		f.Details = append(f.Details, fmt.Sprintf(
			"key %q not in %s (%d records, first record %d)", displayKey(k), ref, kc.count, kc.first))
	}
	if shownMisses := int64(0); len(keys) > 0 {
		for _, k := range keys {
			shownMisses += s.missing.keys[k].count
		}
		if rest := s.misses - shownMisses; rest > 0 {
			f.Details = append(f.Details, fmt.Sprintf("... and %d more dangling records", rest))
		}
	}
	f.Score = 1
	if s.records > 0 {
		f.Score = float64(s.records-f.Violations) / float64(s.records)
	}
	f.Passed = f.Violations == 0
	return f
}

// ---------------------------------------------------------------------------
// TimelinessCheck

// DefaultTimelinessSkew tolerates event times slightly ahead of the
// evaluation clock before they count as future-dated.
const DefaultTimelinessSkew = 5 * time.Minute

// TimelinessCheck measures the dataset's freshness — the Currentness
// characteristic over the whole stream rather than one record: the
// fraction of records inside each freshness window, the min/max
// event-time skew, and the records that are stale (older than MaxAge),
// future-dated beyond MaxSkew, blank or unparsable. The evaluation clock
// is read once per run so every worker — and every worker count — judges
// against the same instant.
type TimelinessCheck struct {
	// Field holds an RFC 3339 event timestamp.
	Field string
	// Windows are the freshness windows to report, e.g. 1h, 24h, 7d.
	Windows []time.Duration
	// MaxAge is the oldest acceptable age; records older violate. 0 means
	// the largest window.
	MaxAge time.Duration
	// MaxSkew tolerates event times this far in the future; beyond it the
	// record violates. 0 means DefaultTimelinessSkew, negative means none.
	MaxSkew time.Duration
	// Now supplies the evaluation clock; time.Now when nil.
	Now func() time.Time
	// Optional excludes blank values instead of counting them as
	// violations.
	Optional bool
}

// Name returns "check_timeliness".
func (TimelinessCheck) Name() string { return "check_timeliness" }

// Characteristic returns Currentness.
func (TimelinessCheck) Characteristic() iso25012.Characteristic { return iso25012.Currentness }

// NewStates reads the clock once and mints n states sharing it.
func (c TimelinessCheck) NewStates(n, _ int) []CheckState {
	now := time.Now
	if c.Now != nil {
		now = c.Now
	}
	asOf := now()
	windows := append([]time.Duration(nil), c.Windows...)
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	maxAge := c.MaxAge
	if maxAge == 0 && len(windows) > 0 {
		maxAge = windows[len(windows)-1]
	}
	maxSkew := c.MaxSkew
	if maxSkew == 0 {
		maxSkew = DefaultTimelinessSkew
	} else if maxSkew < 0 {
		maxSkew = 0
	}
	out := make([]CheckState, n)
	for i := range out {
		out[i] = &timelinessState{
			check:   c,
			asOf:    asOf,
			windows: windows,
			maxAge:  maxAge,
			maxSkew: maxSkew,
			within:  make([]int64, len(windows)),
		}
	}
	return out
}

// timelinessState is one worker's accumulator: integer counts per outcome
// and window, plus the age extrema — no floating-point state, so merges
// are exact in any order.
type timelinessState struct {
	check   TimelinessCheck
	asOf    time.Time
	windows []time.Duration
	maxAge  time.Duration
	maxSkew time.Duration

	records   int64
	blanks    int64
	malformed int64
	stale     int64
	future    int64
	within    []int64
	minAge    time.Duration
	maxSeen   time.Duration
	hasAge    bool

	// parse memo: consecutive equal values skip the time.Parse.
	lastVal  string
	haveLast bool
	lastTS   time.Time
	lastBad  bool
}

func (s *timelinessState) add(raw string) {
	s.records++
	trimmed := strings.TrimSpace(raw)
	if trimmed == "" {
		s.blanks++
		return
	}
	if !s.haveLast || trimmed != s.lastVal {
		ts, err := time.Parse(time.RFC3339, trimmed)
		s.lastVal, s.haveLast = trimmed, true
		s.lastTS, s.lastBad = ts, err != nil
	}
	if s.lastBad {
		s.malformed++
		return
	}
	age := s.asOf.Sub(s.lastTS)
	if !s.hasAge || age < s.minAge {
		s.minAge = age
	}
	if !s.hasAge || age > s.maxSeen {
		s.maxSeen = age
	}
	s.hasAge = true
	switch {
	case age < -s.maxSkew:
		s.future++
	case age > s.maxAge:
		s.stale++
	default:
		for i, w := range s.windows {
			if age <= w {
				s.within[i]++
			}
		}
	}
}

// ObserveBatch folds the timestamp column.
func (s *timelinessState) ObserveBatch(_ int64, b *ColumnBatch) {
	rows := b.Rows()
	col := b.Col(s.check.Field)
	if col == nil {
		s.records += int64(rows)
		s.blanks += int64(rows)
		return
	}
	for i := 0; i < rows; i++ {
		s.add(col.Raw[i])
	}
}

// Merge folds other into s.
func (s *timelinessState) Merge(other CheckState) {
	o := other.(*timelinessState)
	s.records += o.records
	s.blanks += o.blanks
	s.malformed += o.malformed
	s.stale += o.stale
	s.future += o.future
	for i := range s.within {
		s.within[i] += o.within[i]
	}
	if o.hasAge {
		if !s.hasAge || o.minAge < s.minAge {
			s.minAge = o.minAge
		}
		if !s.hasAge || o.maxSeen > s.maxSeen {
			s.maxSeen = o.maxSeen
		}
		s.hasAge = true
	}
}

// Finding renders the merged result. All fractions derive from merged
// integer counts, so any sharding prints the same bytes.
func (s *timelinessState) Finding() CrossFinding {
	f := CrossFinding{Check: s.check.Name(), Characteristic: s.check.Characteristic(), Records: s.records}
	denom := s.records
	if s.check.Optional {
		denom -= s.blanks
	}
	f.Violations = s.malformed + s.stale + s.future
	if !s.check.Optional {
		f.Violations += s.blanks
	}
	for i, w := range s.windows {
		pct := 0.0
		if denom > 0 {
			pct = 100 * float64(s.within[i]) / float64(denom)
		}
		f.Details = append(f.Details, fmt.Sprintf("within %s: %.1f%% (%d/%d)", w, pct, s.within[i], denom))
	}
	if s.hasAge {
		f.Details = append(f.Details, fmt.Sprintf("event-time skew min %s, max %s", s.minAge, s.maxSeen))
	}
	if s.stale > 0 {
		f.Details = append(f.Details, fmt.Sprintf("%d records older than %s", s.stale, s.maxAge))
	}
	if s.future > 0 {
		f.Details = append(f.Details, fmt.Sprintf("%d records future-dated beyond %s", s.future, s.maxSkew))
	}
	if s.malformed > 0 {
		f.Details = append(f.Details, fmt.Sprintf("%d records with unparsable timestamps", s.malformed))
	}
	if s.blanks > 0 && !s.check.Optional {
		f.Details = append(f.Details, fmt.Sprintf("%d records with blank %s", s.blanks, s.check.Field))
	}
	f.Score = 1
	if denom > 0 {
		f.Score = float64(denom-f.Violations) / float64(denom)
	}
	f.Passed = f.Violations == 0
	return f
}

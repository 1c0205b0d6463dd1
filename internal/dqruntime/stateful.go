package dqruntime

import (
	"container/heap"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"
	"unsafe"

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

// appendKey appends row i's multi-field key to buf, exactly as KeyOf
// builds it from the row's record map (missing column or cell → "").
func appendKey(buf []byte, cols []*Column, i int) []byte {
	for ci, c := range cols {
		if ci > 0 {
			buf = append(buf, keySep...)
		}
		if c != nil {
			buf = append(buf, c.Raw[i]...)
		}
	}
	return buf
}

// AddKeys adds each row's key over fields, exactly as KeyOf builds it, to
// set; a key is probed in a scratch buffer and copied only if new.
func AddKeys(set map[string]struct{}, fields []string, b *ColumnBatch) {
	cols, buf := keyCols(fields, b, nil), []byte(nil)
	for i := 0; i < b.Rows(); i++ {
		buf = appendKey(buf[:0], cols, i)
		if _, ok := set[string(buf)]; !ok {
			set[string(buf)] = struct{}{}
		}
	}
}

// view returns b as a string that shares b's bytes, so a key built in a
// reused scratch buffer is probed, hashed and compared as a string without
// a copy. Such a view is valid only during the call it is passed to: the
// next appendKey into the buffer rewrites it. Everything that keeps a key
// copies it — uniqTable.put copies it into a key block, keyTally.insert
// clones it — while the Bloom filter and the Ref probe only read it.
// (uniqTable.key views a key block, which is never rewritten.)
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// blankAt reports whether row i's key is blank: every key column is
// absent or holds a missing or blank cell. The cell kinds were classified
// with strings.TrimSpace at decode time, so no key is split or trimmed
// here.
func blankAt(cols []*Column, i int) bool {
	for _, c := range cols {
		if c != nil && c.Kinds[i] > CellBlank {
			return false
		}
	}
	return true
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

// fnv1a constants and hashes: the Bloom filter's 64-bit key hash. It is a
// function of the key bytes alone, so a filter's bits depend on the set
// of keys inserted, never on the process or on which state saw them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(key string) uint64 {
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

func (b *bloomFilter) insert(key string) {
	h1 := fnv1a(key)
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
	cap   int
	keys  map[string]*keyCount
	order maxHeap // the retained keys, largest at the root
}

func newKeyTally(cap int) *keyTally {
	if cap < 0 {
		cap = 0
	}
	return &keyTally{cap: cap, keys: make(map[string]*keyCount, cap)}
}

// add folds count observations of key, the first at ordinal.
func (t *keyTally) add(key string, ordinal, count int64) {
	if t.cap == 0 {
		return
	}
	if kc := t.keys[key]; kc != nil {
		kc.count += count
		kc.first = min(kc.first, ordinal)
		return
	}
	t.insert(key, ordinal, count)
}

// insert retains a key the tally does not hold, evicting the largest
// retained key when full; a key not below that largest one is dropped
// before it is copied. The tally keeps a copy of key, which may view a
// batch's cell or a scratch buffer.
func (t *keyTally) insert(key string, ordinal, count int64) {
	if len(t.order) == t.cap && key >= t.order[0] {
		return
	}
	kept := strings.Clone(key)
	if evicted, ok := t.order.keep(kept, t.cap); ok {
		delete(t.keys, evicted)
	}
	t.keys[kept] = &keyCount{count: count, first: ordinal}
}

// merge folds other into t through the same deterministic retention.
func (t *keyTally) merge(other *keyTally) {
	for k, kc := range other.keys {
		t.add(k, kc.first, kc.count)
	}
}

// sortedKeys returns the retained keys in ascending order.
func (t *keyTally) sortedKeys() []string {
	out := slices.Clone(t.order)
	slices.Sort(out)
	return out
}

// maxHeap is a max-heap of keys: the one bounded selection of the k
// smallest keys, for the tally's retention and uniqueness's details.
type maxHeap []string

// keep offers key to a heap that holds at most k keys. The heap takes it
// while it has room; once full, a key below the largest replaces it, and
// keep returns the replaced key as evicted with ok true. A key not below
// the largest is not kept. Either way the heap holds the k smallest keys
// offered so far.
func (h *maxHeap) keep(key string, k int) (evicted string, ok bool) {
	switch {
	case len(*h) < k:
		heap.Push(h, key)
	case k > 0 && key < (*h)[0]:
		evicted, (*h)[0] = (*h)[0], key
		heap.Fix(h, 0)
		return evicted, true
	}
	return "", false
}

func (h maxHeap) Len() int           { return len(h) }
func (h maxHeap) Less(i, j int) bool { return h[i] > h[j] }
func (h maxHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *maxHeap) Push(x any)        { *h = append(*h, x.(string)) }
func (h *maxHeap) Pop() any {
	old := *h
	key := old[len(old)-1]
	*h = old[:len(old)-1]
	return key
}

// ---------------------------------------------------------------------------
// uniqTable: open-addressed key counting for the uniqueness check.

// tableSeed seeds every uniqTable's hash. States merge tables by stored
// hash, so all tables of a process share it; no finding depends on where
// a key lands in a table, so the seed may differ between processes.
var tableSeed = maphash.MakeSeed()

func tableHash(key string) uint64 { return maphash.String(tableSeed, key) }

// A page holds 512 entries (12 KiB), a block 64 KiB of keys. A key over a
// quarter block gets a block of its own, and locLen as its loc's length:
// the whole block.
const (
	uniqPageBits = 9
	uniqPageLen  = 1 << uniqPageBits
	uniqBlockLen = 64 << 10
	locLen       = 1<<20 - 1
)

// uniqEntry is one distinct key: its hash, its count and where its bytes
// lie, as block<<40 | offset<<20 | length. A count of 0 marks a hole.
type uniqEntry struct {
	hash  uint64
	count int64
	loc   uint64
}

// uniqTable counts key occurrences. Entries sit in fixed pages and key
// bytes in blocks, never copied once written, so growth rebuilds only the
// index: open-addressed 8-byte slots, probed linearly, each holding the
// high half of its key's hash beside the entry's number, so a probe reads
// an entry only when that half matches. Only the page and block lists
// hold pointers, a repeat key allocates nothing; the zero table is empty.
type uniqTable struct {
	slots  []uint64 // 0 = empty, else hash>>32<<32 | entry number+1
	pages  []*[uniqPageLen]uniqEntry
	n      int // entry numbers taken, holes included
	keys   int // distinct keys
	blocks [][]byte
	shared []byte // blocks[cur], which takes short keys from tail on
	cur    uint64
	tail   int
}

// len returns the number of distinct keys.
func (t *uniqTable) len() int { return t.keys }

func (t *uniqTable) entry(n int) *uniqEntry { return &t.pages[n>>uniqPageBits][n&(uniqPageLen-1)] }

// key returns e's key, viewing its block. The view stays valid for good:
// block bytes are never rewritten (the first block's doubling copies into
// a new array), so the table's keys are read in place, never copied out.
func (t *uniqTable) key(e *uniqEntry) string {
	b := t.blocks[e.loc>>40]
	if n := e.loc & locLen; n < locLen {
		b = b[e.loc>>20&locLen:][:n]
	}
	return view(b)
}

// growTo sizes the index for about hint keys in one rehash, skipping the
// intermediate doublings; a no-op when it is already large enough.
func (t *uniqTable) growTo(hint int) {
	size := max(16, len(t.slots))
	for size*3/4 < hint {
		size <<= 1
	}
	if size > len(t.slots) {
		t.rehash(size)
	}
}

// find probes for (h, key): a non-nil e is the entry holding it;
// otherwise slot is the empty slot where an insert of the key belongs.
func (t *uniqTable) find(h uint64, key string) (e *uniqEntry, slot int) {
	mask := len(t.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return nil, i
		}
		if s>>32 == h>>32 {
			if e := t.entry(int(uint32(s)) - 1); e.hash == h && t.key(e) == key {
				return e, i
			}
		}
	}
}

// link points the empty slot find returned at entry n, a new key.
func (t *uniqTable) link(slot int, h uint64, n int) {
	if n >= math.MaxUint32 {
		panic("dqruntime: more distinct keys than a uniqTable slot can index")
	}
	t.slots[slot] = h>>32<<32 | uint64(n+1)
	t.keys++
}

// insertAt adds the key at loc as a new entry, links the empty slot find
// returned to it and keeps the load factor under 3/4.
func (t *uniqTable) insertAt(slot int, h, loc uint64, count int64) {
	if t.n>>uniqPageBits == len(t.pages) {
		t.pages = append(t.pages, new([uniqPageLen]uniqEntry))
	}
	*t.entry(t.n) = uniqEntry{hash: h, count: count, loc: loc}
	t.link(slot, h, t.n)
	t.n++
	if t.keys >= len(t.slots)*3/4 {
		t.rehash(len(t.slots) * 2)
	}
}

// put copies key into the blocks and returns its loc. The shared block
// starts at 1 KiB and doubles into a new array in its place, which keeps
// its keys' locs, until it is a whole block; then a new one follows.
func (t *uniqTable) put(key string) uint64 {
	if len(key) > uniqBlockLen/4 {
		t.blocks = append(t.blocks, []byte(key))
		return uint64(len(t.blocks)-1)<<40 | locLen
	}
	if t.shared == nil || t.tail+len(key) > len(t.shared) {
		if t.shared == nil || len(t.shared) == uniqBlockLen {
			t.blocks, t.cur, t.tail = append(t.blocks, nil), uint64(len(t.blocks)), 0
		}
		size := max(1<<10, min(uniqBlockLen, 2*len(t.shared)))
		for size < t.tail+len(key) {
			size *= 2
		}
		b := make([]byte, size)
		t.shared, t.tail, t.blocks[t.cur] = b, copy(b, t.shared[:t.tail]), b
	}
	loc := t.cur<<40 | uint64(t.tail)<<20 | uint64(len(key))
	t.tail += copy(t.shared[t.tail:], key)
	return loc
}

// rehash rebuilds the index at size slots; entries and keys stay put.
func (t *uniqTable) rehash(size int) {
	t.slots = make([]uint64, size)
	mask := size - 1
	for n := 0; n < t.n; n++ {
		if e := t.entry(n); e.count > 0 {
			j := int(e.hash) & mask
			for t.slots[j] != 0 {
				j = (j + 1) & mask
			}
			t.slots[j] = e.hash>>32<<32 | uint64(n+1)
		}
	}
}

// adopt folds o into t with one index growth and no copy: t takes o's
// pages and blocks as they are, and an entry of o whose key t holds adds
// its count to t's and is left a hole. So o is spent.
func (t *uniqTable) adopt(o *uniqTable) {
	t.growTo(t.keys + o.keys + 1)
	first, base := len(t.pages)<<uniqPageBits, uint64(len(t.blocks))<<40
	t.pages, t.blocks = append(t.pages, o.pages...), append(t.blocks, o.blocks...)
	for n := 0; n < o.n; n++ {
		if oe := o.entry(n); oe.count > 0 {
			oe.loc += base
			if e, slot := t.find(oe.hash, t.key(oe)); e != nil {
				e.count, oe.count = e.count+oe.count, 0
			} else {
				t.link(slot, oe.hash, first+n)
			}
		}
	}
	t.n = first + o.n
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
	// Start the exact tables small, so tiny datasets don't pay; a table's
	// index doubles as its keys arrive, while its entries and key bytes
	// fill pages and blocks that never move.
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
		st.table.growTo(hint)
		out[i] = st
	}
	return out
}

// uniquenessState is one worker's accumulator: an exact key-count table
// until maxExact distinct keys, a Bloom filter (non-nil once spilled)
// afterwards. Multi-field keys are built in a reused scratch buffer, and
// a key's bytes are copied into the table the first time it is seen —
// repeat observations of a key allocate nothing.
type uniquenessState struct {
	check      UniquenessCheck
	maxExact   int
	bloomBits  int
	maxDetails int
	records    int64
	table      uniqTable
	bloom      *bloomFilter
	cols       []*Column // ObserveBatch scratch
	keyBuf     []byte    // multi-field key scratch
}

// add folds one observation of a key: a single-field key is the cell's
// raw value, a multi-field key a view of keyBuf.
func (s *uniquenessState) add(key string) {
	if s.bloom != nil {
		s.bloom.insert(key)
		return
	}
	h := tableHash(key)
	e, slot := s.table.find(h, key)
	if e != nil {
		e.count++
		return
	}
	if s.table.len() >= s.maxExact {
		s.spill()
		s.bloom.insert(key)
		return
	}
	s.table.insertAt(slot, h, s.table.put(key), 1)
}

// spill converts the exact set to Bloom form, hashing each stored key
// with the filter's own hash. Insertion order is irrelevant (inserts are
// idempotent), so a spill at any point yields the same bits as inserting
// the stream directly.
func (s *uniquenessState) spill() {
	s.bloom = newBloom(s.bloomBits)
	s.bloom.insertTable(&s.table)
	s.table = uniqTable{}
}

// insertTable inserts every key a table holds.
func (b *bloomFilter) insertTable(t *uniqTable) {
	for n := 0; n < t.n; n++ {
		if e := t.entry(n); e.count > 0 {
			b.insert(t.key(e))
		}
	}
}

// ObserveBatch folds every row's key, extracted column-wise: a present
// single column's cells as they are, any other key through appendKey.
func (s *uniquenessState) ObserveBatch(_ int64, b *ColumnBatch) {
	s.cols = keyCols(s.check.Fields, b, s.cols)
	rows := b.Rows()
	s.records += int64(rows)
	if len(s.cols) == 1 && s.cols[0] != nil {
		for _, key := range s.cols[0].Raw[:rows] {
			s.add(key)
		}
		return
	}
	for i := 0; i < rows; i++ {
		s.keyBuf = appendKey(s.keyBuf[:0], s.cols, i)
		s.add(view(s.keyBuf))
	}
}

// Merge folds other into s. Two exact states merge their tables (the
// approximate decision is deferred to Finding, where the merged
// cardinality is known), s's adopting other's, which leaves other spent;
// once either side spilled, both degrade to the unioned filter.
func (s *uniquenessState) Merge(other CheckState) {
	o := other.(*uniquenessState)
	s.records += o.records
	if s.bloom == nil && o.bloom == nil {
		s.table.adopt(&o.table)
		return
	}
	if s.bloom == nil {
		s.spill()
	}
	if o.bloom != nil {
		s.bloom.union(o.bloom)
	} else {
		s.bloom.insertTable(&o.table)
	}
}

// Finding renders the merged result. The mode is a property of the data
// alone: exact iff the dataset's distinct-key count fits MaxExact. (No
// shard spills unless its local cardinality exceeds MaxExact, and a
// merged exact set over MaxExact converts here, so any sharding lands on
// the same side.)
func (s *uniquenessState) Finding() CrossFinding {
	f := CrossFinding{Check: s.check.Name(), Characteristic: s.check.Characteristic(), Records: s.records}
	if s.bloom == nil && s.table.len() > s.maxExact {
		s.spill()
	}
	if s.bloom != nil {
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
		f.Violations = s.records - int64(s.table.len())
		// One pass keeps the maxDetails smallest duplicated keys.
		var shown maxHeap
		dups := 0
		for n := 0; n < s.table.n; n++ {
			if e := s.table.entry(n); e.count > 1 {
				dups++
				shown.keep(s.table.key(e), s.maxDetails)
			}
		}
		slices.Sort(shown)
		for _, k := range shown {
			e, _ := s.table.find(tableHash(k), k)
			f.Details = append(f.Details, fmt.Sprintf("key %q appears %d times", displayKey(k), e.count))
		}
		if extra := dups - len(shown); extra > 0 {
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

// NewStates mints n states, each probing Ref, shared read-only.
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
	keyBuf  []byte    // multi-field key scratch
}

// ObserveBatch folds every row's foreign key, extracted column-wise: a
// single-field key is its cell, a multi-field key a view of the scratch
// buffer, which the missing-key tally copies only if it keeps the key.
func (s *referentialState) ObserveBatch(base int64, b *ColumnBatch) {
	s.cols = keyCols(s.check.Fields, b, s.cols)
	rows := b.Rows()
	s.records += int64(rows)
	for i := 0; i < rows; i++ {
		if blankAt(s.cols, i) {
			s.blanks++
			continue
		}
		var key string
		if len(s.cols) == 1 {
			key = s.cols[0].Raw[i]
		} else {
			s.keyBuf = appendKey(s.keyBuf[:0], s.cols, i)
			key = view(s.keyBuf)
		}
		if _, found := s.check.Ref[key]; !found {
			s.misses++
			s.missing.add(key, base+int64(i), 1)
		}
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
	// record violates. 0 means DefaultMaxSkew, negative means none.
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
	maxSkew := resolveSkew(c.MaxSkew)
	out := make([]CheckState, n)
	for i := range out {
		out[i] = &timelinessState{
			check:    c,
			asOf:     asOf,
			asOfSec:  asOf.Unix(),
			asOfNsec: int64(asOf.Nanosecond()),
			windows:  windows,
			maxAge:   maxAge,
			maxSkew:  maxSkew,
			within:   make([]int64, len(windows)),
		}
	}
	return out
}

// timelinessState is one worker's accumulator: integer counts per outcome
// and window, plus the earliest and latest event times, whose ages are
// the skew extrema — no floating-point state, so merges are exact in any
// order.
type timelinessState struct {
	check    TimelinessCheck
	asOf     time.Time
	asOfSec  int64 // asOf as Unix seconds and nanoseconds
	asOfNsec int64
	windows  []time.Duration
	maxAge   time.Duration
	maxSkew  time.Duration

	records   int64
	blanks    int64
	malformed int64
	stale     int64
	future    int64
	within    []int64
	earliest  instant
	latest    instant
	hasAge    bool
}

// instant is an event time as Unix seconds and nanoseconds in [0, 1e9),
// as parseTimestamp returns it. The age of an instant is exact in these
// integers at any distance from the clock, where a time.Duration ends at
// ±292 years.
type instant struct{ sec, nsec int64 }

func (t instant) before(u instant) bool { return t.sec < u.sec || t.sec == u.sec && t.nsec < u.nsec }

// durationSecs bounds the whole seconds of an age that converts to a
// time.Duration without overflow.
const durationSecs = math.MaxInt64/int64(time.Second) - 1

// age is asOf.Sub(time.Unix(sec, nsec)). The difference is taken in whole
// seconds and nanoseconds; only an event more than 292 years from asOf,
// whose age Sub clamps to the Duration range, goes through time.Time.
func (s *timelinessState) age(sec, nsec int64) time.Duration {
	if d := s.asOfSec - sec; -durationSecs < d && d < durationSecs {
		return time.Duration(d)*time.Second + time.Duration(s.asOfNsec-nsec)
	}
	return s.asOf.Sub(time.Unix(sec, nsec))
}

// ageOf is asOf.Sub(time.Parse(time.RFC3339, v)), reporting false where
// time.Parse fails: the parse and the age arithmetic ObserveBatch runs,
// composed as FuzzParseTimestamp checks them.
func (s *timelinessState) ageOf(v string) (time.Duration, bool) {
	sec, nsec, ok := parseTimestamp(v)
	if !ok {
		return 0, false
	}
	return s.age(sec, nsec), true
}

// skew renders the age of t in time.Duration's String form: byte for byte
// what Duration.String prints for an age within its range, and the same
// h/m/s form beyond it.
func (s *timelinessState) skew(t instant) string {
	sec, nsec := s.asOfSec-t.sec, s.asOfNsec-t.nsec
	if -durationSecs < sec && sec < durationSecs {
		return (time.Duration(sec)*time.Second + time.Duration(nsec)).String()
	}
	sign := ""
	if sec < 0 {
		sign, sec, nsec = "-", -sec, -nsec
	}
	if nsec < 0 {
		sec, nsec = sec-1, nsec+int64(time.Second)
	}
	out := fmt.Sprintf("%s%dh%dm%d", sign, sec/3600, sec/60%60, sec%60)
	if nsec > 0 {
		out += strings.TrimRight(fmt.Sprintf(".%09d", nsec), "0")
	}
	return out + "s"
}

// observe folds one event time: the earliest and latest so far, and its
// age's outcome and windows.
func (s *timelinessState) observe(t instant) {
	if !s.hasAge || t.before(s.earliest) {
		s.earliest = t
	}
	if !s.hasAge || s.latest.before(t) {
		s.latest = t
	}
	s.hasAge = true
	switch age := s.age(t.sec, t.nsec); {
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

// ObserveBatch folds the timestamp column. A missing or blank cell (its
// kind says so) counts as blank; any other is trimmed and parsed.
func (s *timelinessState) ObserveBatch(_ int64, b *ColumnBatch) {
	rows := b.Rows()
	s.records += int64(rows)
	col := b.Col(s.check.Field)
	if col == nil {
		s.blanks += int64(rows)
		return
	}
	for i, kind := range col.Kinds[:rows] {
		if kind <= CellBlank {
			s.blanks++
			continue
		}
		sec, nsec, ok := parseTimestamp(col.Trim(i))
		if !ok {
			s.malformed++
			continue
		}
		s.observe(instant{sec, nsec})
	}
}

// parseTimestamp is time.Parse(time.RFC3339, v) as Unix seconds and
// nanoseconds: parseRFC3339 reads the fixed-width shape, and time.Parse
// decides whatever that rejects — it also accepts, for one, a one-digit
// hour ("T7:23:11Z") and a comma before the fraction ("11,5Z").
// FuzzParseTimestamp holds both to time.Parse.
func parseTimestamp(v string) (sec, nsec int64, ok bool) {
	if sec, nsec, ok = parseRFC3339(v); ok {
		return sec, nsec, true
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return 0, 0, false
	}
	return t.Unix(), int64(t.Nanosecond()), true
}

// parseRFC3339 reads exactly the shape time.Parse's own RFC 3339 fast
// path accepts — YYYY-MM-DDTHH:MM:SS, optionally '.' and one or more
// digits (the first nine are the nanoseconds), then Z or ±HH:MM, with
// every field in range (day within its month, zone hour at most 23) —
// straight into Unix seconds and nanoseconds, building no time.Time. It
// reports false for anything else.
func parseRFC3339(v string) (sec, nsec int64, ok bool) {
	if len(v) < len("2006-01-02T15:04:05Z") ||
		v[4] != '-' || v[7] != '-' || v[10] != 'T' || v[13] != ':' || v[16] != ':' {
		return 0, 0, false
	}
	century, ok1 := num2(v, 0)
	yy, ok2 := num2(v, 2)
	month, ok3 := num2(v, 5)
	day, ok4 := num2(v, 8)
	hour, ok5 := num2(v, 11)
	minute, ok6 := num2(v, 14)
	second, ok7 := num2(v, 17)
	year := century*100 + yy
	if !(ok1 && ok2 && ok3 && ok4 && ok5 && ok6 && ok7) ||
		month < 1 || month > 12 || day < 1 || day > daysIn(month, year) ||
		hour > 23 || minute > 59 || second > 59 {
		return 0, 0, false
	}
	rest := v[19:]
	if len(rest) >= 2 && rest[0] == '.' && isDigit(rest[1]) {
		n := 1
		for ; n < len(rest) && isDigit(rest[n]); n++ {
			if n <= 9 {
				nsec = nsec*10 + int64(rest[n]-'0')
			}
		}
		for d := n - 1; d < 9; d++ {
			nsec *= 10
		}
		rest = rest[n:]
	}
	var offset int64
	switch {
	case rest == "Z":
	case len(rest) == len("+07:00") && (rest[0] == '+' || rest[0] == '-') && rest[3] == ':':
		zh, okh := num2(rest, 1)
		zm, okm := num2(rest, 4)
		if !okh || !okm || zh > 23 || zm > 59 {
			return 0, 0, false
		}
		offset = int64(zh*60+zm) * 60
		if rest[0] == '-' {
			offset = -offset
		}
	default:
		return 0, 0, false
	}
	sec = daysSinceEpoch(year, month, day)*86400 + int64(hour*3600+minute*60+second) - offset
	return sec, nsec, true
}

// num2 reads the two decimal digits at v[i:i+2].
func num2(v string, i int) (int, bool) {
	hi, lo := v[i]-'0', v[i+1]-'0'
	return int(hi)*10 + int(lo), hi <= 9 && lo <= 9
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// daysIn returns the length of month in year, proleptic Gregorian.
func daysIn(month, year int) int {
	if month == 2 {
		if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
			return 29
		}
		return 28
	}
	return 30 + (month+month/8)%2
}

// daysSinceEpoch counts the days from 1970-01-01 to a proleptic Gregorian
// date in years 0 through 9999: Hinnant's days_from_civil over a year
// that starts in March and is shifted up one 400-year cycle, so all of
// its arithmetic is unsigned.
func daysSinceEpoch(year, month, day int) int64 {
	y, m := uint64(year)+400, uint64(month)
	if m <= 2 {
		y--
		m += 12
	}
	era := y / 400
	yoe := y - era*400
	doy := (153*(m-3)+2)/5 + uint64(day) - 1
	doe := yoe*365 + yoe/4 - yoe/100 + doy
	return int64(era*146097+doe) - 719468 - 146097
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
		if !s.hasAge || o.earliest.before(s.earliest) {
			s.earliest = o.earliest
		}
		if !s.hasAge || s.latest.before(o.latest) {
			s.latest = o.latest
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
		f.Details = append(f.Details, fmt.Sprintf("event-time skew min %s, max %s", s.skew(s.latest), s.skew(s.earliest)))
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

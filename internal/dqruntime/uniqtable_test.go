package dqruntime

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The exact uniqueness table held to a map of counts: entries that cross
// page edges, keys that cross the first block's doublings and the edges
// of whole blocks, keys of a quarter block and one byte more, and keys
// longer than a loc's length field, over any split into states and any
// merge order.

// uniquenessOracle is the exact uniqueness finding computed from a map of
// key counts over records observations: the maxDetails smallest
// duplicated keys through displayKey and %q, then the "... and N more"
// line.
func uniquenessOracle(counts map[string]int64, records int64, maxDetails int) CrossFinding {
	c := UniquenessCheck{}
	f := CrossFinding{Check: c.Name(), Characteristic: c.Characteristic(), Records: records}
	f.Violations = records - int64(len(counts))
	var dups []string
	for k, n := range counts {
		if n > 1 {
			dups = append(dups, k)
		}
	}
	sort.Strings(dups)
	for _, k := range dups[:min(len(dups), maxDetails)] {
		f.Details = append(f.Details, fmt.Sprintf("key %q appears %d times", displayKey(k), counts[k]))
	}
	if extra := len(dups) - maxDetails; extra > 0 {
		f.Details = append(f.Details, fmt.Sprintf("... and %d more duplicated keys", extra))
	}
	f.Score = 1
	if records > 0 {
		f.Score = float64(records-f.Violations) / float64(records)
	}
	f.Passed = f.Violations == 0
	return f
}

// observeSplit folds each key, as a one-field record, into the state the
// parallel slice names, 256 rows to a batch, then merges the states in
// the given order and renders the finding. A chain folds every state into
// the first, as the batch engine does; a tree folds each second state of
// the list into the one before it, round by round, so that states which
// have merged are merged again.
func observeSplit(c UniquenessCheck, keys []string, state []int, order []int, tree bool, maxDetails int) CrossFinding {
	states := c.NewStates(len(order), maxDetails)
	batches := make([]*ColumnBatch, len(states))
	flush := func(s int) {
		if batches[s] != nil {
			states[s].ObserveBatch(1, batches[s])
			batches[s] = nil
		}
	}
	for i, k := range keys {
		s := state[i]
		if batches[s] == nil {
			batches[s] = &ColumnBatch{}
		}
		batches[s].SetField("k", k)
		batches[s].EndRow()
		if batches[s].Rows() == 256 {
			flush(s)
		}
	}
	for s := range states {
		flush(s)
	}
	for list := order; len(list) > 1; {
		var next []int
		for i, s := range list {
			switch {
			case !tree && i > 0:
				states[list[0]].Merge(states[s])
			case tree && i%2 == 1:
				states[list[i-1]].Merge(states[s])
			default:
				next = append(next, s)
			}
		}
		list = next
	}
	return states[order[0]].Finding()
}

// tableAdd counts one observation of key in t, as uniquenessState.add
// does in exact mode.
func tableAdd(t *uniqTable, key string) {
	h := tableHash(key)
	if e, slot := t.find(h, key); e != nil {
		e.count++
	} else {
		t.insertAt(slot, h, t.put(key), 1)
	}
}

// TestUniqTableEdges drives one table across every storage edge and
// checks its layout there, then holds its counts, and the findings of the
// same keys split over one to five states merged in random order, as a
// chain or a tree, to a map oracle.
func TestUniqTableEdges(t *testing.T) {
	var tbl uniqTable
	tbl.growTo(256)
	counts := map[string]int64{}
	var keys []string
	add := func(key string) {
		tableAdd(&tbl, key)
		counts[key]++
		keys = append(keys, key)
	}
	// blockOf returns the block that holds the key added last.
	blockOf := func() int { return int(tbl.entry(tbl.len()-1).loc >> 40) }

	add("first")
	first := tbl.key(tbl.entry(0))
	firstView := strings.Clone(first)
	for _, k := range []string{"", "\x00", "a\x00b", "\x1f", "x\x1fy", "\x1f\x1f"} {
		add(k)
		add(k)
	}
	// Short keys until the first block is a whole block: it doubles from
	// 1 KiB through every size, keeping its place in the list.
	sizes := []int{len(tbl.shared)}
	for i := 0; len(tbl.blocks) == 1 && tbl.tail+64 <= uniqBlockLen; i++ {
		add(fmt.Sprintf("short-%06d", i))
		if n := len(tbl.shared); n != sizes[len(sizes)-1] {
			sizes = append(sizes, n)
		}
	}
	if want := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}; !reflect.DeepEqual(sizes, want) {
		t.Fatalf("first block sizes %v, want %v", sizes, want)
	}
	// A key that ends exactly at the block's end, then one that opens the
	// next block.
	add(strings.Repeat("e", uniqBlockLen-tbl.tail))
	if tbl.tail != uniqBlockLen || blockOf() != 0 {
		t.Fatalf("edge key: tail %d in block %d, want %d in block 0", tbl.tail, blockOf(), uniqBlockLen)
	}
	add("next-block")
	if blockOf() != 1 || tbl.tail != len("next-block") {
		t.Fatalf("key past a full block: block %d tail %d, want block 1 tail %d", blockOf(), tbl.tail, len("next-block"))
	}
	// A quarter block shares the block; one byte more gets a block of its
	// own, exactly its length, and the shared block goes on filling.
	add(strings.Repeat("q", uniqBlockLen/4))
	if blockOf() != 1 {
		t.Fatalf("quarter-block key in block %d, want the shared block 1", blockOf())
	}
	for _, n := range []int{uniqBlockLen/4 + 1, locLen - 1, locLen, locLen + 5} {
		add(strings.Repeat("L", n))
		if b := blockOf(); b != len(tbl.blocks)-1 || len(tbl.blocks[b]) != n || tbl.cur != 1 {
			t.Fatalf("%d-byte key in block %d of %d (%d bytes), shared block %d", n, b, len(tbl.blocks), len(tbl.blocks[b]), tbl.cur)
		}
		add(fmt.Sprintf("after-long-%d", n))
		if blockOf() != 1 {
			t.Fatalf("short key after a %d-byte key in block %d, want the shared block 1", n, blockOf())
		}
	}
	// 100k more keys, a tenth of them repeats, crossing pages and blocks.
	for i := 0; i < 100_000; i++ {
		if i%10 == 0 {
			add(keys[i%len(keys)])
		} else {
			add(fmt.Sprintf("bulk-%d", i))
		}
	}
	if len(tbl.pages) < 3 {
		t.Fatalf("%d entry pages, want at least 3", len(tbl.pages))
	}
	if first != firstView {
		t.Fatalf("key(0) view reads %q after the inserts, want %q", first, firstView)
	}
	if tbl.len() != len(counts) {
		t.Fatalf("table holds %d keys, oracle %d", tbl.len(), len(counts))
	}
	for n := 0; n < tbl.len(); n++ {
		e := tbl.entry(n)
		k := tbl.key(e)
		if want, ok := counts[k]; !ok || e.count != want || e.hash != tableHash(k) {
			t.Fatalf("entry %d: key of %d bytes, count %d, oracle %d (present %v)", n, len(k), e.count, want, ok)
		}
		if found, _ := tbl.find(e.hash, k); found != e {
			t.Fatalf("entry %d: find returns another entry", n)
		}
	}

	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 6; round++ {
		n := 1 + rng.Intn(5)
		state := make([]int, len(keys))
		for i := range state {
			state[i] = rng.Intn(n)
		}
		maxDetails := []int{0, 3, 40}[round%3]
		want := uniquenessOracle(counts, int64(len(keys)), maxDetails)
		got := observeSplit(UniquenessCheck{Fields: []string{"k"}, MaxExact: -1}, keys, state, rng.Perm(n), round%2 == 1, maxDetails)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%d states, maxDetails %d:\n  oracle %.300v\n  table  %.300v", n, maxDetails, want, got)
		}
	}

	// The zero table, as spill leaves it, reads as empty and stores keys.
	var zero uniqTable
	if zero.len() != 0 {
		t.Fatalf("zero table holds %d keys", zero.len())
	}
	if e := (uniqEntry{loc: zero.put("kept")}); zero.key(&e) != "kept" {
		t.Fatalf("zero table stored %q", zero.key(&e))
	}
}

// FuzzUniquenessTable holds the uniqueness finding to a map of counts.
// The input is a program: its first byte picks one to four states and
// the details cap, its second the merge order and shape (chain or tree),
// and each later op emits keys to the state its high bits name:
//   - op 0 emits the next n bytes as a key;
//   - op 1 repeats the last literal key up to 128 Ki bytes, so keys
//     longer than a quarter block appear;
//   - op 2 emits up to 8192 synthetic keys, some of them repeats, so
//     entries cross pages and keys cross blocks;
//   - op 3 emits an earlier key again.
//
// It checks the exact mode (MaxExact -1), and a MaxExact of 64, whose
// finding must be approximate exactly when more than 64 keys are
// distinct, and equal one unsplit state's finding either way: the map
// oracle's when exact, the same Bloom estimate when not.
func FuzzUniquenessTable(f *testing.F) {
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 3, 0, 3, 0})
	f.Add([]byte{3, 5, 0, 2, 'k', 'y', 1, 200, 2, 40, 6, 255, 7, 9, 3, 1})
	f.Add([]byte{1, 1, 2, 255, 6, 255, 0, 0, 3, 0, 1, 1, 1, 2})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) < 2 {
			return
		}
		n := 1 + int(prog[0]%4)
		maxDetails := int(prog[0] / 4 % 8)
		order, tree := rand.New(rand.NewSource(int64(prog[1]))).Perm(n), prog[1]&1 == 1
		var keys []string
		var state []int
		literal := "x"
		emit := func(op byte, k string) {
			keys = append(keys, k)
			state = append(state, int(op>>2)%n)
		}
		for i := 2; i < len(prog) && len(keys) < 50_000; i++ {
			op := prog[i]
			arg := 0
			if i+1 < len(prog) {
				i++
				arg = int(prog[i])
			}
			switch op & 3 {
			case 0:
				end := min(i+1+arg, len(prog))
				literal = string(prog[i+1 : end])
				i = end - 1
				emit(op, literal)
			case 1:
				emit(op, strings.Repeat(literal, min(1+arg*256, 128<<10/max(1, len(literal)))))
			case 2:
				for j := 0; j < (1+arg)*32; j++ {
					emit(op+byte(j)<<2, fmt.Sprintf("bulk-%d-%s", j%(1+arg*24), literal))
				}
			case 3:
				if len(keys) > 0 {
					emit(op, keys[arg*97%len(keys)])
				}
			}
		}
		counts := map[string]int64{}
		for _, k := range keys {
			counts[k]++
		}
		want := uniquenessOracle(counts, int64(len(keys)), maxDetails)
		got := observeSplit(UniquenessCheck{Fields: []string{"k"}, MaxExact: -1}, keys, state, order, tree, maxDetails)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("exact: %d keys over %d states:\n  oracle %.300v\n  table  %.300v", len(keys), n, want, got)
		}
		c64 := UniquenessCheck{Fields: []string{"k"}, MaxExact: 64, BloomBits: 1 << 12}
		got = observeSplit(c64, keys, state, order, tree, maxDetails)
		one := observeSplit(c64, keys, make([]int, len(keys)), []int{0}, false, maxDetails)
		if got.Approximate != (len(counts) > 64) || got.Records != int64(len(keys)) {
			t.Fatalf("MaxExact 64: %d distinct keys, approximate %v, %d records", len(counts), got.Approximate, got.Records)
		}
		if !reflect.DeepEqual(one, got) || !got.Approximate && !reflect.DeepEqual(want, got) {
			t.Fatalf("MaxExact 64:\n  oracle    %.300v\n  one state %.300v\n  merged    %.300v", want, one, got)
		}
	})
}

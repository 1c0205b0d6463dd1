package metamodel

import (
	"sync"
	"testing"
)

// TestExtentCacheInvalidation checks the memoized AllInstances extents:
// repeated queries return the cached slice, Add and Remove invalidate it,
// and results always reflect the current membership in insertion order.
func TestExtentCacheInvalidation(t *testing.T) {
	m, zoo := newZooModel(t)
	animal, _ := zoo.Class("Animal")

	l1 := m.MustCreate("Lion")
	l2 := m.MustCreate("Lion")
	got := m.AllInstances(animal)
	if len(got) != 2 || got[0] != l1 || got[1] != l2 {
		t.Fatalf("AllInstances = %v, want [l1 l2]", got)
	}

	// A hit must not rebuild: same backing array on the second call.
	again := m.AllInstances(animal)
	if &again[0] != &got[0] {
		t.Fatal("second AllInstances call rebuilt the extent instead of hitting the cache")
	}
	// Extent boxes the same objects once, memoized alongside.
	boxed := m.Extent(animal)
	if len(boxed) != 2 || boxed[0] != l1 || boxed[1] != l2 {
		t.Fatalf("Extent = %v, want [l1 l2]", boxed)
	}
	if again := m.Extent(animal); &again[0] != &boxed[0] {
		t.Fatal("second Extent call rebuilt the boxed extent instead of hitting the cache")
	}

	// Create (which Adds) invalidates; the new object appears, in order.
	g := m.MustCreate("Gazelle")
	got = m.AllInstances(animal)
	if len(got) != 3 || got[2] != g {
		t.Fatalf("after create: AllInstances = %v, want l1,l2,g", got)
	}
	if boxed = m.Extent(animal); len(boxed) != 3 || boxed[2] != g {
		t.Fatalf("after create: Extent = %v, want l1,l2,g", boxed)
	}

	// Remove invalidates too.
	m.Remove(l1)
	got = m.AllInstances(animal)
	if len(got) != 2 || got[0] != l2 || got[1] != g {
		t.Fatalf("after remove: AllInstances = %v, want l2,g", got)
	}
	if boxed = m.Extent(animal); len(boxed) != 2 || boxed[0] != l2 || boxed[1] != g {
		t.Fatalf("after remove: Extent = %v, want l2,g", boxed)
	}

	// The cached slice is clipped: appending to it must not corrupt the
	// cache for the next caller.
	_ = append(m.AllInstances(animal), l1)
	got = m.AllInstances(animal)
	if len(got) != 2 {
		t.Fatalf("caller append corrupted the cached extent: %v", got)
	}
}

// TestExtentCacheConcurrentReads hammers AllInstances from many
// goroutines with interleaved writes; the race detector referees.
func TestExtentCacheConcurrentReads(t *testing.T) {
	m, zoo := newZooModel(t)
	animal, _ := zoo.Class("Animal")
	lion, _ := zoo.Class("Lion")
	for i := 0; i < 8; i++ {
		m.MustCreate("Lion")
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if n := len(m.AllInstances(animal)); n < 8 {
					t.Errorf("extent shrank below seed size: %d", n)
					return
				}
				_ = m.AllInstances(lion)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.MustCreate("Gazelle")
		}
	}()
	wg.Wait()
}

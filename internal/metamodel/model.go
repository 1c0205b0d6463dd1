package metamodel

import (
	"fmt"
	"sort"
	"sync"
)

// Model is a container for a graph of Objects conforming to one metamodel
// package. It tracks all objects (not just roots) so generic services —
// validation, serialization, diagram emission — can iterate the extent of a
// class without chasing references.
type Model struct {
	mu        sync.RWMutex
	name      string
	metamodel *Package
	objects   []*Object
	members   map[*Object]bool
	byXID     map[string]*Object
	// extents memoizes each class's extent, so repeated OCL
	// `T.allInstances()` scans are O(extent) instead of O(all objects) with
	// an IsA walk per object. Any membership change drops the whole map:
	// models are built once and read many times, so a coarse invalidation
	// keeps Add/Remove cheap while the steady state hits the cache.
	extents map[*Class]extent
}

// extent is one class's memoized extent, as objects (AllInstances) and
// boxed once for the OCL evaluator (Extent). Both are capacity-clipped.
type extent struct {
	objs  []*Object
	boxed []any
}

// NewModel creates an empty model conforming to the given metamodel package.
func NewModel(name string, metamodel *Package) *Model {
	return &Model{
		name:      name,
		metamodel: metamodel,
		members:   make(map[*Object]bool),
		byXID:     make(map[string]*Object),
	}
}

// Name returns the model's name.
func (m *Model) Name() string { return m.name }

// Metamodel returns the package this model conforms to.
func (m *Model) Metamodel() *Package { return m.metamodel }

// Create instantiates the named class (resolved in the model's metamodel)
// and adds the instance to the model.
func (m *Model) Create(className string) (*Object, error) {
	c, ok := m.metamodel.FindClass(className)
	if !ok {
		return nil, fmt.Errorf("metamodel: model %q: unknown class %q in metamodel %q",
			m.name, className, m.metamodel.QualifiedName())
	}
	o, err := NewObject(c)
	if err != nil {
		return nil, err
	}
	m.Add(o)
	return o, nil
}

// MustCreate is Create that panics on error, for fixture construction.
func (m *Model) MustCreate(className string) *Object {
	o, err := m.Create(className)
	if err != nil {
		panic(err)
	}
	return o
}

// Add registers an externally created object with the model. Adding the same
// object twice is a no-op.
func (m *Model) Add(o *Object) {
	if o == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.members[o] {
		return
	}
	m.members[o] = true
	m.objects = append(m.objects, o)
	m.extents = nil
	if o.XID() != "" {
		m.byXID[o.XID()] = o
	}
}

// Remove deletes an object from the model (references from other objects are
// left to the caller to clean up; the validator reports dangling ones).
func (m *Model) Remove(o *Object) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.members[o] {
		return
	}
	delete(m.members, o)
	m.extents = nil
	for i, existing := range m.objects {
		if existing == o {
			m.objects = append(m.objects[:i], m.objects[i+1:]...)
			break
		}
	}
	if o.XID() != "" {
		delete(m.byXID, o.XID())
	}
}

// Objects returns a snapshot of all objects in insertion order.
func (m *Model) Objects() []*Object {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]*Object(nil), m.objects...)
}

// Len returns the number of objects in the model.
func (m *Model) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}

// AllInstances returns all objects whose class conforms to the given class,
// in insertion order. It is the reflective backbone of OCL's allInstances().
// The extent is computed once per class and memoized until the model's
// membership changes; the returned slice is shared with the cache and must
// not be mutated by callers (it is clipped, so appends copy).
func (m *Model) AllInstances(c *Class) []*Object { return m.extent(c).objs }

// Extent returns AllInstances(c) boxed as []any, the OCL evaluator's
// collection type. It is memoized with the extent, so it is shared by every
// caller and must not be written (it is clipped, so appends copy).
func (m *Model) Extent(c *Class) []any { return m.extent(c).boxed }

func (m *Model) extent(c *Class) extent {
	m.mu.RLock()
	e, ok := m.extents[c]
	m.mu.RUnlock()
	if ok {
		return e
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.extents[c]; ok {
		return e
	}
	for _, o := range m.objects {
		if o.IsA(c) {
			e.objs = append(e.objs, o)
		}
	}
	e.objs = e.objs[:len(e.objs):len(e.objs)]
	e.boxed = make([]any, len(e.objs))
	for i, o := range e.objs {
		e.boxed[i] = o
	}
	if m.extents == nil {
		m.extents = make(map[*Class]extent)
	}
	m.extents[c] = e
	return e
}

// AllInstancesOf resolves the class by name and returns its extent.
func (m *Model) AllInstancesOf(className string) ([]*Object, error) {
	c, ok := m.metamodel.FindClass(className)
	if !ok {
		return nil, fmt.Errorf("metamodel: unknown class %q in metamodel %q",
			className, m.metamodel.QualifiedName())
	}
	return m.AllInstances(c), nil
}

// ByXID returns the object with the given external id, if any.
func (m *Model) ByXID(id string) (*Object, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	o, ok := m.byXID[id]
	return o, ok
}

// AssignXIDs gives every object without an external id a deterministic one
// derived from its class name and position, so serialization is stable.
func (m *Model) AssignXIDs() {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Index ids assigned after Add (SetXID does not know about the model).
	for _, o := range m.objects {
		if o.XID() != "" {
			m.byXID[o.XID()] = o
		}
	}
	counters := map[string]int{}
	for _, o := range m.objects {
		if o.XID() != "" {
			continue
		}
		base := o.Class().Name()
		counters[base]++
		id := fmt.Sprintf("%s.%d", base, counters[base])
		for {
			if _, taken := m.byXID[id]; !taken {
				break
			}
			counters[base]++
			id = fmt.Sprintf("%s.%d", base, counters[base])
		}
		o.SetXID(id)
		m.byXID[id] = o
	}
}

// FindByName returns the first object of the given class (or subclass) whose
// "name" slot equals name.
func (m *Model) FindByName(className, name string) (*Object, bool) {
	objs, err := m.AllInstancesOf(className)
	if err != nil {
		return nil, false
	}
	for _, o := range objs {
		if o.GetString("name") == name {
			return o, true
		}
	}
	return nil, false
}

// Stats summarizes the model: instance counts per class, sorted by class name.
func (m *Model) Stats() []ClassCount {
	m.mu.RLock()
	defer m.mu.RUnlock()
	counts := map[string]int{}
	for _, o := range m.objects {
		counts[o.Class().Name()]++
	}
	out := make([]ClassCount, 0, len(counts))
	for name, n := range counts {
		out = append(out, ClassCount{Class: name, Count: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}

// ClassCount pairs a class name with its instance count.
type ClassCount struct {
	// Class is the simple class name.
	Class string
	// Count is the number of (direct) instances in the model.
	Count int
}

// CrossReferences returns, for every object in the model, the objects it
// references through any slot. Used by generic deletion analysis and the
// dangling-reference check.
func (m *Model) CrossReferences(o *Object) []*Object {
	var out []*Object
	for _, prop := range o.SetProperties() {
		v, _ := o.Get(prop)
		switch t := v.(type) {
		case Ref:
			if t.Target != nil {
				out = append(out, t.Target)
			}
		case *List:
			for _, item := range t.Items {
				if r, ok := item.(Ref); ok && r.Target != nil {
					out = append(out, r.Target)
				}
			}
		}
	}
	return out
}

// Contains reports whether the object is part of this model.
func (m *Model) Contains(o *Object) bool {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.members[o]
}

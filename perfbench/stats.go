package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// phase measures one timed phase: wall time, process CPU and Go runtime
// counters between begin and end.
type phase struct {
	wall time.Duration
	cpu  time.Duration
	gc   uint32
	// pauseNs and mallocs are runtime.MemStats deltas.
	pauseNs, mallocs uint64

	t0     time.Time
	cpu0   time.Duration
	ticks0 ticks
	ms0    runtime.MemStats
}

// begin collects the heap, so every phase starts from the same state, and
// then starts the clocks.
func (p *phase) begin() {
	runtime.GC()
	runtime.ReadMemStats(&p.ms0)
	p.ticks0 = readTicks()
	p.cpu0 = cpuTime()
	p.t0 = time.Now()
}

// end stops the clocks, adds this stretch to the phase totals and
// returns its wall and CPU time and the share of vCPU time stolen in it.
func (p *phase) end() (wall, cpu time.Duration, stolen float64) {
	wall, cpu = time.Since(p.t0), cpuTime()-p.cpu0
	stolen = stolenSince(p.ticks0)
	p.wall += wall
	p.cpu += cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.gc += ms.NumGC - p.ms0.NumGC
	p.pauseNs += ms.PauseTotalNs - p.ms0.PauseTotalNs
	p.mallocs += ms.Mallocs - p.ms0.Mallocs
	return wall, cpu, stolen
}

// span is one traced call into a layer, timed from the benchmark's side.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs use the same code paths.
type tracer struct {
	t0     time.Time
	lastID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span id, so a parent's id is known before its children
// finish; 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.lastID.Add(1)
}

// add records a finished span under a reserved id.
func (t *tracer) add(id int64, name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// child records a finished span with a fresh id under parent.
func (t *tracer) child(name string, parent int64, start, end time.Time) {
	t.add(t.id(), name, parent, start, end)
}

// durations returns the durations, in units of unit, of every span named
// name.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// write dumps the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics in report order.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name string, value float64, unit string) {
	if s.m == nil {
		s.m = map[string]metric{}
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: value, Unit: unit}
}

// timeCall runs f and returns how long it took.
func timeCall(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func mustf(err error, format string, args ...any) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", fmt.Sprintf(format, args...), err)
		os.Exit(1)
	}
}

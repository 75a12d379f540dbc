// Package trace is the observability substrate of the GROPHECY++
// pipeline: hierarchical spans stamped in deterministic *simulated*
// time, exportable as a Chrome trace_event JSON file (chrome.go) or a
// human-readable tree (tree.go).
//
// The repository has no wall clock anywhere in its modeled results —
// every duration is simulated — and the trace layer follows the same
// rule so that a given seed and fault plan reproduce the same trace
// byte for byte. The tracer owns one monotone simulated clock,
// starting at zero. Spans that represent projected GPU time advance
// the clock by their modeled duration (Span.Advance); structural
// spans (parsing, analysis, enumeration, measurement bookkeeping)
// consume no simulated time and show up as zero-duration spans whose
// attributes carry the interesting quantities (candidate counts,
// retries, simulated measurement cost).
//
// The zero value of *Tracer and *Span is safe: every method is a
// no-op on a nil receiver, so instrumented code never checks whether
// tracing is enabled. Propagation is through context.Context — With
// installs a tracer, Start opens a child of the current span.
package trace

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
)

// Interval is one simulated-time interval in seconds. It is the
// single home of interval arithmetic shared by this package and
// internal/timeline (which embeds it in its events).
type Interval struct {
	// Start is seconds from the beginning of the trace.
	Start float64
	// Duration is the interval length in seconds.
	Duration float64
}

// End returns the interval's finish time.
func (iv Interval) End() float64 { return iv.Start + iv.Duration }

// Contains reports whether o lies entirely within iv, with a small
// relative tolerance for float accumulation.
func (iv Interval) Contains(o Interval) bool {
	eps := 1e-9 * (1 + iv.Duration)
	return o.Start >= iv.Start-eps && o.End() <= iv.End()+eps
}

// Attr is one span attribute. The value is stored as it was given
// and formatted only when an export reads it (Value), so spans on a
// hot path that nobody exports cost no string formatting.
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  uint64 // int64 bits, float64 bits, or 0/1 for a bool
}

type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, str: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, kind: kindInt, num: uint64(value)}
}

// Float builds a float attribute.
func Float(key string, value float64) Attr {
	return Attr{Key: key, kind: kindFloat, num: math.Float64bits(value)}
}

// Bool builds a boolean attribute.
func Bool(key string, value bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if value {
		a.num = 1
	}
	return a
}

// Value formats the attribute's value deterministically: strings as
// given, integers in decimal, floats in shortest round-trip 'g'
// format, booleans as true or false.
func (a Attr) Value() string {
	switch a.kind {
	case kindInt:
		return strconv.FormatInt(int64(a.num), 10)
	case kindFloat:
		return strconv.FormatFloat(math.Float64frombits(a.num), 'g', -1, 64)
	case kindBool:
		return strconv.FormatBool(a.num != 0)
	}
	return a.str
}

// Span is one node of the trace tree. All methods are safe on a nil
// receiver and safe for concurrent use (the owning tracer serializes
// mutation).
type Span struct {
	tr       *Tracer
	name     string
	parent   *Span
	children []*Span
	attrs    []Attr

	start  float64
	end    float64
	closed bool
}

// Tracer owns one trace tree and its simulated clock. A nil *Tracer
// is a valid disabled tracer.
type Tracer struct {
	mu    sync.Mutex
	clock float64
	root  *Span
}

// spanPool recycles span nodes across trace trees. Spans are only
// returned to the pool by Tracer.Release, which owners call when a
// trace's life provably ends; a tracer whose spans are retained
// elsewhere (e.g. the daemon's flight ring) is simply never released
// and costs one allocation per span, as before.
var spanPool = sync.Pool{New: func() any { return new(Span) }}

// newSpan takes a span from the pool and initializes it.
func newSpan(tr *Tracer, name string, parent *Span, attrs []Attr, start float64) *Span {
	s := spanPool.Get().(*Span)
	s.tr, s.name, s.parent = tr, name, parent
	s.attrs = attrs
	s.start, s.end = start, 0
	s.closed = false
	s.children = s.children[:0]
	return s
}

// New returns a tracer whose root span is open at simulated time 0.
func New(rootName string) *Tracer {
	t := &Tracer{}
	t.root = newSpan(t, rootName, nil, nil, 0)
	return t
}

// Root returns the root span (nil on a nil tracer).
func (t *Tracer) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Now returns the current simulated time in seconds.
func (t *Tracer) Now() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.clock
}

// Close ends the root span. Call it once, after the traced work.
func (t *Tracer) Close() {
	if t == nil {
		return
	}
	t.root.End()
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// With installs the tracer in the context.
func With(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// FromContext returns the installed tracer, or nil.
func FromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Current returns the innermost open span carried by the context, or
// nil.
func Current(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a child span of the context's current span (or of the
// root when none is set) and returns a derived context carrying it.
// With no tracer installed it returns (ctx, nil) and costs nothing.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent := Current(ctx)
	if parent == nil {
		parent = t.root
	}
	s := t.startChild(parent, name, attrs)
	return context.WithValue(ctx, spanKey, s), s
}

// startChild creates the span under the tracer lock.
func (t *Tracer) startChild(parent *Span, name string, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := newSpan(t, name, parent, attrs, t.clock)
	parent.children = append(parent.children, s)
	return s
}

// Release recycles every span of the trace into the shared pool and
// leaves the tracer empty. Call it only when the trace's life has
// ended and no span or child-slice reference escapes — after an
// export, or when a per-operation tracer goes out of scope. Using any
// previously obtained *Span after Release is a logic error (the span
// may already be serving another tracer). A nil tracer is a no-op, so
// untraced paths need no check.
func (t *Tracer) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.root = nil
	t.clock = 0
	t.mu.Unlock()
	if root != nil {
		releaseSpan(root)
	}
}

// Released reports whether Release has recycled this tracer's spans.
// A nil tracer is never released (it never held any).
func (t *Tracer) Released() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.root == nil
}

// releaseSpan returns a span subtree to the pool.
func releaseSpan(s *Span) {
	for i, c := range s.children {
		releaseSpan(c)
		s.children[i] = nil
	}
	s.children = s.children[:0]
	s.tr, s.parent, s.attrs = nil, nil, nil
	s.name = ""
	spanPool.Put(s)
}

// Name returns the span name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Interval returns the span's simulated-time interval. An open span
// extends to the current clock.
func (s *Span) Interval() Interval {
	if s == nil {
		return Interval{}
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	end := s.end
	if !s.closed {
		end = s.tr.clock
	}
	return Interval{Start: s.start, Duration: end - s.start}
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Attrs returns the span attributes sorted by key.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	out := append([]Attr(nil), s.attrs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SetAttr adds or replaces one attribute.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			return
		}
	}
	s.attrs = append(s.attrs, a)
}

// Advance moves the tracer's simulated clock forward by d seconds —
// the span is *spending* modeled time. Negative or NaN advances are
// ignored; advancing a closed span is a no-op.
func (s *Span) Advance(d float64) {
	if s == nil || !(d > 0) {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.closed {
		return
	}
	s.tr.clock += d
}

// End closes the span at the current simulated time. Ending twice is
// a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.end = s.tr.clock
}

// Check verifies the whole trace tree is well-formed: every span is
// closed, intervals have non-negative duration, children nest inside
// their parent, sibling start times are monotone non-decreasing, and
// child durations sum to no more than the parent duration. It is the
// invariant the property tests assert for every example skeleton.
func (t *Tracer) Check() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.root == nil {
		return fmt.Errorf("trace: tracer already released")
	}
	return checkSpan(t.root)
}

func checkSpan(s *Span) error {
	if !s.closed {
		return fmt.Errorf("trace: span %q not closed", s.name)
	}
	if s.end < s.start {
		return fmt.Errorf("trace: span %q ends (%g) before it starts (%g)", s.name, s.end, s.start)
	}
	parent := Interval{Start: s.start, Duration: s.end - s.start}
	prevStart := s.start
	var childSum float64
	for _, c := range s.children {
		if c.start < prevStart {
			return fmt.Errorf("trace: span %q starts at %g before its elder sibling (%g)",
				c.name, c.start, prevStart)
		}
		prevStart = c.start
		if c.closed {
			if !parent.Contains(Interval{Start: c.start, Duration: c.end - c.start}) {
				return fmt.Errorf("trace: span %q [%g, %g] escapes parent %q [%g, %g]",
					c.name, c.start, c.end, s.name, s.start, s.end)
			}
			childSum += c.end - c.start
		}
		if err := checkSpan(c); err != nil {
			return err
		}
	}
	if eps := 1e-9 * (1 + parent.Duration); childSum > parent.Duration+eps {
		return fmt.Errorf("trace: children of %q sum to %g, more than the span's %g",
			s.name, childSum, parent.Duration)
	}
	return nil
}

// Walk visits every span of the tree depth-first in creation order.
func (t *Tracer) Walk(fn func(s *Span, depth int)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	root := t.root
	t.mu.Unlock()
	if root != nil {
		walkSpan(root, 0, fn)
	}
}

func walkSpan(s *Span, depth int, fn func(*Span, int)) {
	fn(s, depth)
	for _, c := range s.Children() {
		walkSpan(c, depth+1, fn)
	}
}

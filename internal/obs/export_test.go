package obs

// NewCapped is New without a hook and with the span cap set to spanCap
// instead of maxSpans, so tests can starve a tracer with a handful of
// spans.
func NewCapped(id string, spanCap int) *Tracer {
	t := New(id, nil)
	t.spanCap = spanCap
	return t
}

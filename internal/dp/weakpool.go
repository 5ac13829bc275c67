package dp

import (
	"math/bits"
	"sync"
	"weak"
)

// WeakPool recycles storage between computations, one pool per size
// class, which its callers number. It holds what it pools weakly:
// pooled storage is garbage to the collector. A caller that asks before
// the next collection takes it again; otherwise that collection frees
// it, as it would have freed it unpooled. Held strongly, pooled storage
// would count as live heap at every collection and raise the heap goal,
// and so peak RSS, by what it holds, where the live heap is small.
type WeakPool[T any] [4 * (bits.UintSize + 1)]sync.Pool

// Get returns a pooled value of the class, or nil when there is none.
func (p *WeakPool[T]) Get(class int) *T {
	for {
		ref, _ := p[class].Get().(*weak.Pointer[T])
		if ref == nil {
			return nil
		}
		if v := ref.Value(); v != nil {
			return v
		}
	}
}

// Put pools v in the class. *ref is v's weak pointer, made on v's first
// Put and kept in v, and set before v is pooled, as another goroutine
// may take v at once. It is an allocation of its own: pooling a pointer
// into v would hold all of v strongly.
func (p *WeakPool[T]) Put(class int, v *T, ref **weak.Pointer[T]) {
	if *ref == nil {
		w := weak.Make(v)
		*ref = &w
	}
	p[class].Put(*ref)
}

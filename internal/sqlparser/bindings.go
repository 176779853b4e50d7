package sqlparser

import "sync/atomic"

// Bindings is a statement tree's slot for what an executor compiles from
// it: one value per owner, which for the engine is one binding per
// database instance, since the replicas of a cluster execute the same
// cached tree. Load is one atomic load and a scan of the (usually one or
// two) entries; Store replaces the owner's entry copy-on-write. A value
// lives as long as the tree does, so whatever bounds the trees — the plan
// cache — bounds the values too. A nil *Bindings holds nothing and stores
// nothing.
type Bindings struct {
	list atomic.Pointer[[]ownedBinding]
}

type ownedBinding struct{ owner, v any }

// Load returns the value owner stored, or nil.
func (b *Bindings) Load(owner any) any {
	if b == nil {
		return nil
	}
	if l := b.list.Load(); l != nil {
		for _, e := range *l {
			if e.owner == owner {
				return e.v
			}
		}
	}
	return nil
}

// Store makes v owner's value, replacing the one it had; a nil v removes
// owner's entry.
func (b *Bindings) Store(owner, v any) {
	if b == nil {
		return
	}
	for {
		old := b.list.Load()
		var l []ownedBinding
		if old != nil {
			l = make([]ownedBinding, 0, len(*old)+1)
			for _, e := range *old {
				if e.owner != owner {
					l = append(l, e)
				}
			}
		}
		if v != nil {
			l = append(l, ownedBinding{owner, v})
		}
		if b.list.CompareAndSwap(old, &l) {
			return
		}
	}
}

package sim

// FreeList recycles heap records across the callback chains that models run
// per transaction, so a steady-state chain allocates nothing. A record is
// owned by exactly one in-flight chain between Get and Put; the zero value
// is an empty list ready to use.
type FreeList[T any] struct {
	free []*T
}

// Get returns a recycled record, or a new zero one with fresh set so the
// caller can bind the record's handlers once.
func (l *FreeList[T]) Get() (r *T, fresh bool) {
	if n := len(l.free); n > 0 {
		r = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return r, false
	}
	return new(T), true
}

// Put returns r to the list. The caller must hold no further reference to
// it, and should clear any fields that pin large buffers or callbacks.
func (l *FreeList[T]) Put(r *T) { l.free = append(l.free, r) }

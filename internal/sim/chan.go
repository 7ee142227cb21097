package sim

// Chan is a simulated bounded channel carrying values of type T between
// processes. It models a hardware FIFO: Put blocks while the FIFO is full,
// Get blocks while it is empty, and handoffs consume zero simulated time
// (data-path delay is modeled separately by Pipe or by the memory models).
//
// A capacity of zero gives rendezvous semantics: Put blocks until a Get
// arrives and vice versa, like an unregistered AXI handshake.
type Chan[T any] struct {
	k        *Kernel
	capacity int
	buf      Queue[T]

	// putq holds blocked producers together with the value each carries;
	// getq holds blocked consumers together with the slot the value is
	// delivered into.
	putq Queue[*putWaiter[T]]
	getq Queue[*getWaiter[T]]

	// freePut and freeGet recycle waiters. A put waiter returns here only
	// when the channel dequeues it, and a get waiter only after its Get has
	// read the delivered value, so a stray Wake that ends a Park early can
	// never hand a still-queued waiter to another process.
	freePut FreeList[putWaiter[T]]
	freeGet FreeList[getWaiter[T]]
}

type putWaiter[T any] struct {
	p *Proc
	v T
}

type getWaiter[T any] struct {
	p     *Proc
	v     T
	valid bool
}

// NewChan creates a channel with the given capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, capacity: capacity}
}

// Len reports the number of buffered values.
func (c *Chan[T]) Len() int { return c.buf.Len() }

// Cap reports the channel capacity.
func (c *Chan[T]) Cap() int { return c.capacity }

// Put delivers v into the channel, blocking p while the channel is full.
func (c *Chan[T]) Put(p *Proc, v T) {
	if c.TryPut(v) {
		return
	}
	w, _ := c.freePut.Get()
	w.p, w.v = p, v
	c.putq.Push(w)
	p.Park()
}

// TryPut delivers v without blocking and reports whether it succeeded.
func (c *Chan[T]) TryPut(v T) bool {
	// Fast path: a consumer is already waiting and nothing is buffered
	// ahead of us, so hand the value over directly.
	if c.getq.Len() > 0 && c.buf.Len() == 0 {
		g := c.getq.Pop()
		g.v, g.valid = v, true
		g.p.Wake()
		return true
	}
	if c.buf.Len() < c.capacity {
		c.buf.Push(v)
		return true
	}
	return false
}

// Get removes and returns the oldest value, blocking p while the channel is
// empty.
func (c *Chan[T]) Get(p *Proc) T {
	if v, ok := c.TryGet(); ok {
		return v
	}
	w, _ := c.freeGet.Get()
	w.p = p
	c.getq.Push(w)
	p.Park()
	if !w.valid {
		panic("sim: Chan.Get woken without a value")
	}
	v := w.v
	*w = getWaiter[T]{}
	c.freeGet.Put(w)
	return v
}

// TryGet removes and returns the oldest value without blocking.
func (c *Chan[T]) TryGet() (T, bool) {
	if c.buf.Len() > 0 {
		v := c.buf.Pop()
		// A freed slot admits the oldest blocked producer.
		if c.putq.Len() > 0 {
			c.buf.Push(c.takePut())
		}
		return v, true
	}
	// Rendezvous: take directly from a blocked producer.
	if c.putq.Len() > 0 {
		return c.takePut(), true
	}
	var zero T
	return zero, false
}

// takePut dequeues the oldest blocked producer, wakes it, recycles its
// waiter and returns the value it carried.
func (c *Chan[T]) takePut() T {
	w := c.putq.Pop()
	v := w.v
	w.p.Wake()
	*w = putWaiter[T]{}
	c.freePut.Put(w)
	return v
}

// Peek returns the oldest value without removing it.
func (c *Chan[T]) Peek() (T, bool) {
	if c.buf.Len() > 0 {
		return c.buf.Peek(), true
	}
	if c.putq.Len() > 0 {
		return c.putq.Peek().v, true
	}
	var zero T
	return zero, false
}

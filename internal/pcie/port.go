package pcie

import "snacc/internal/sim"

// Port is one device's attachment to the fabric. It can initiate reads and
// writes toward any mapped address and, if it carries a Completer, serve
// transactions that target its own ranges.
type Port struct {
	f         *Fabric
	name      string
	cfg       LinkConfig
	completer Completer

	// tx serializes traffic this port sends toward the root complex
	// (write payloads, read requests, read completions for its own BARs).
	// rx serializes traffic arriving at this port.
	tx, rx *sim.Pipe

	credits *creditGate
	// ctrlCredits is a separate outstanding-read pool for small control
	// transactions (queue-entry and PRP-list fetches). Real controllers
	// run command fetch and data DMA from separate tag pools, so control
	// reads must not steal data-path read credits.
	ctrlCredits *creditGate

	// readPadding is added to every read-chunk completion. The NVMe device
	// model uses it to reproduce the SSD's firmware banding epochs (§5.2's
	// alternating write bandwidth).
	readPadding sim.Time

	// tracer, when attached, captures transactions at this port's
	// completer boundary (the paper's ILA methodology).
	tracer *Tracer

	// identity is the optional config-space header for enumeration.
	identity *Identity

	// Payload accounting for Figure 7: bytes of useful data moved, by
	// direction, excluding header overhead.
	payloadTx int64
	payloadRx int64

	// Free lists of the callback records this port's transactions run on
	// (see DESIGN.md §5, "Callback records").
	reads  sim.FreeList[readReq]
	chunks sim.FreeList[readChunk]
	bursts sim.FreeList[postedBurst]
	tlps   sim.FreeList[postedTLP]
}

// Name returns the port name.
func (pt *Port) Name() string { return pt.name }

// Link returns the port's link configuration.
func (pt *Port) Link() LinkConfig { return pt.cfg }

// Fabric returns the owning fabric.
func (pt *Port) Fabric() *Fabric { return pt.f }

// SetReadPadding adds d to the completion path of every subsequent read
// chunk issued by this port.
func (pt *Port) SetReadPadding(d sim.Time) { pt.readPadding = d }

// PayloadTx returns useful bytes this port has sent (writes it initiated
// plus read completions it served).
func (pt *Port) PayloadTx() int64 { return pt.payloadTx }

// PayloadRx returns useful bytes delivered to this port.
func (pt *Port) PayloadRx() int64 { return pt.payloadRx }

// ResetStats zeroes the payload counters and the underlying pipe counters.
func (pt *Port) ResetStats() {
	pt.payloadTx, pt.payloadRx = 0, 0
	pt.tx.ResetStats()
	pt.rx.ResetStats()
}

// writeGranule bounds how much of a posted burst is booked onto the TX link
// at once. Real PCIe arbitrates at TLP granularity, so a megabyte burst must
// not head-of-line-block a 16-byte completion or doorbell for milliseconds;
// chaining the booking in granules lets competing traffic interleave with at
// most a few microseconds of skew.
const writeGranule = 32 * sim.KiB

// Write issues a posted write of n payload bytes to addr. data, if non-nil,
// is the content (length n) delivered to the target's completer. fn (may be
// nil) runs when the last byte has been delivered into the target. Posted
// writes consume no credits: the initiator's link is the only throttle,
// which is what lets the SSD stream read data into any buffer at full rate.
func (pt *Port) Write(addr uint64, n int64, data []byte, fn func()) {
	if n <= writeGranule {
		pt.writeOne(addr, n, data, fn)
		return
	}
	w, fresh := pt.bursts.Get()
	if fresh {
		w.step = w.onStep
	}
	w.pt, w.addr, w.n, w.off, w.data, w.fn = pt, addr, n, 0, data, fn
	w.onStep()
}

// postedBurst chains the granule-sized sub-writes of one large posted
// write: the next granule books its TX slot when the previous granule
// finishes *serializing*, so the burst still streams at link rate while
// competing small TLPs can slot in between granules.
type postedBurst struct {
	pt     *Port
	addr   uint64
	n, off int64
	data   []byte
	fn     func()
	step   func() // onStep, bound once
}

func (w *postedBurst) onStep() {
	pt, off := w.pt, w.off
	m := min(int64(writeGranule), w.n-off)
	var d []byte
	if w.data != nil {
		d = w.data[off : off+m]
	}
	addr := w.addr + uint64(off)
	if off+m < w.n {
		w.off += m
		pt.f.k.At(pt.writeOne(addr, m, d, nil), w.step)
		return
	}
	fn := w.fn
	*w = postedBurst{step: w.step}
	pt.bursts.Put(w)
	pt.writeOne(addr, m, d, fn)
}

// writeOne books a single posted burst and returns when its TX
// serialization completes.
func (pt *Port) writeOne(addr uint64, n int64, data []byte, fn func()) (txDone sim.Time) {
	if n <= 0 {
		if fn != nil {
			pt.f.k.After(0, fn)
		}
		return pt.f.k.Now()
	}
	dst := pt.f.routeOrPanic(pt, addr, n)
	pt.payloadTx += n
	wire := pt.f.wireBytes(n, pt.cfg.MaxPayload)
	hop := pt.f.hopLatency(pt, dst)
	k := pt.f.k
	// Cut-through: the burst serializes on our TX link, and the target's RX
	// link starts serializing once the first TLP has crossed the fabric.
	txStart, txEnd := pt.tx.ReserveFrom(k.Now(), wire)
	firstTLP := pt.cfg.MaxPayload + pt.f.cfg.TLPHeaderBytes
	if firstTLP > wire {
		firstTLP = wire
	}
	firstAtDst := txStart + sim.TransferTime(firstTLP, pt.tx.BytesPerSec) + hop
	_, rxDone := dst.rx.ReserveFrom(firstAtDst, wire)
	delivered := txEnd + hop
	if rxDone > delivered {
		delivered = rxDone
	}
	t, fresh := pt.tlps.Get()
	if fresh {
		t.deliver = t.onDeliver
	}
	t.src, t.dst, t.addr, t.n, t.data, t.fn = pt, dst, addr, n, data, fn
	k.At(delivered, t.deliver)
	return txEnd
}

// postedTLP carries one posted burst from TX booking to delivery.
type postedTLP struct {
	src, dst *Port
	addr     uint64
	n        int64
	data     []byte
	fn       func()
	deliver  func() // onDeliver, bound once
}

// onDeliver returns the record to its port's free list before the target's
// completer and the caller's fn run, so either may post the next write.
func (t *postedTLP) onDeliver() {
	src, dst, addr, n, data, fn := t.src, t.dst, t.addr, t.n, t.data, t.fn
	*t = postedTLP{deliver: t.deliver}
	src.tlps.Put(t)
	dst.payloadRx += n
	dst.tracer.record(TraceWriteIn, addr, n)
	if dst.completer != nil {
		dst.completer.CompleteWrite(addr, n, data)
	}
	if fn != nil {
		fn()
	}
}

// Read issues a non-posted read of n payload bytes from addr, split into
// MaxReadRequest-sized requests each holding one outstanding-read credit.
// buf, if non-nil (length n), receives the content. fn (may be nil) runs
// when the final completion byte has arrived. The credit window divided by
// the round-trip latency bounds read throughput — the mechanism behind the
// paper's P2P write-bandwidth ceiling (§5.2).
func (pt *Port) Read(addr uint64, n int64, buf []byte, fn func()) {
	pt.read(addr, n, buf, fn, pt.credits)
}

// ReadCtrl issues a read through the control-transaction credit pool,
// keeping queue-entry and PRP-list fetches off the data-path credits.
func (pt *Port) ReadCtrl(addr uint64, n int64, buf []byte, fn func()) {
	pt.read(addr, n, buf, fn, pt.ctrlCredits)
}

func (pt *Port) read(addr uint64, n int64, buf []byte, fn func(), gate *creditGate) {
	if n <= 0 {
		if fn != nil {
			pt.f.k.After(0, fn)
		}
		return
	}
	dst := pt.f.routeOrPanic(pt, addr, n)
	r, _ := pt.reads.Get()
	*r = readReq{pt: pt, dst: dst, gate: gate, addr: addr, n: n, buf: buf, fn: fn}
	r.issue()
}

// readReq tracks one Read/ReadCtrl across its chunks.
type readReq struct {
	pt, dst *Port
	gate    *creditGate
	addr    uint64
	// off is how many bytes have been split into chunks so far.
	n, off   int64
	buf      []byte
	fn       func()
	pending  int
	finished bool
}

// issue splits off the next chunks and sends each as soon as it holds a
// credit, pipelining the next request once this one is on the wire. A chunk
// that finds no credit waits in the gate, and whoever hands it a credit
// sends it and calls issue again.
func (r *readReq) issue() {
	pt := r.pt
	for r.off < r.n {
		c, fresh := pt.chunks.Get()
		if fresh {
			c.bind()
		}
		m := min(pt.cfg.MaxReadRequest, r.n-r.off)
		c.req, c.addr, c.n = r, r.addr+uint64(r.off), m
		if r.buf != nil {
			c.buf = r.buf[r.off : r.off+m]
		}
		r.off += m
		r.pending++
		if !r.gate.acquire(c) {
			return
		}
		pt.sendChunk(c)
	}
	// The last chunk was just sent, so its delivery (which sees finished
	// and completes the request) is still ahead.
	r.finished = true
}

// readChunk is one credit's worth of read: request TLP out, target access,
// completion data back. Its handlers are bound once, when the record is
// first created, and survive recycling.
type readChunk struct {
	req  *readReq
	addr uint64
	n    int64
	buf  []byte
	// pad is the initiator's read padding when the chunk was sent.
	pad  sim.Time
	wire int64

	arrive, access, complete, ret, deliver func()
}

func (c *readChunk) bind() {
	c.arrive, c.access, c.complete = c.onArrive, c.onAccess, c.onComplete
	c.ret, c.deliver = c.onRet, c.onDeliver
}

// sendChunk puts c's request TLP on the wire.
func (pt *Port) sendChunk(c *readChunk) {
	c.pad = pt.readPadding
	reqAt := pt.tx.Reserve(pt.f.cfg.TLPHeaderBytes)
	pt.f.k.At(reqAt+pt.f.hopLatency(pt, c.req.dst), c.arrive)
}

func (c *readChunk) onArrive() {
	f := c.req.pt.f
	f.k.At(c.req.dst.rx.Reserve(f.cfg.TLPHeaderBytes), c.access)
}

func (c *readChunk) onAccess() {
	dst := c.req.dst
	dst.tracer.record(TraceReadReq, c.addr, c.n)
	if dst.completer != nil {
		dst.completer.CompleteRead(c.addr, c.n, c.buf, c.complete)
	} else {
		c.onComplete()
	}
}

func (c *readChunk) onComplete() {
	// Completion data returns over the target's TX link.
	pt, dst := c.req.pt, c.req.dst
	c.wire = pt.f.wireBytes(c.n, dst.cfg.MaxPayload)
	dst.payloadTx += c.n
	dst.tracer.record(TraceReadCpl, c.addr, c.n)
	cplAt := dst.tx.Reserve(c.wire)
	pt.f.k.At(cplAt+pt.f.hopLatency(dst, pt)+c.pad, c.ret)
}

func (c *readChunk) onRet() {
	pt := c.req.pt
	pt.f.k.At(pt.rx.Reserve(c.wire), c.deliver)
}

// onDeliver retires the chunk. The chunk record (and, with the last chunk,
// the request record) goes back to the port's free list before anything
// re-entrant runs, so the credit hand-off and the caller's fn may reuse it.
func (c *readChunk) onDeliver() {
	r, n := c.req, c.n
	pt := r.pt
	pt.payloadRx += n
	c.req, c.buf = nil, nil
	pt.chunks.Put(c)
	if next := r.gate.release(); next != nil {
		pt.sendChunk(next)
		next.req.issue()
	}
	r.pending--
	if r.finished && r.pending == 0 {
		fn := r.fn
		*r = readReq{}
		pt.reads.Put(r)
		if fn != nil {
			fn()
		}
	}
}

// WriteB is a blocking wrapper around Write for process-model callers.
func (pt *Port) WriteB(p *sim.Proc, addr uint64, n int64, data []byte) {
	doneC := sim.NewChan[struct{}](pt.f.k, 1)
	pt.Write(addr, n, data, func() { doneC.TryPut(struct{}{}) })
	doneC.Get(p)
}

// ReadB is a blocking wrapper around Read for process-model callers.
func (pt *Port) ReadB(p *sim.Proc, addr uint64, n int64, buf []byte) {
	doneC := sim.NewChan[struct{}](pt.f.k, 1)
	pt.Read(addr, n, buf, func() { doneC.TryPut(struct{}{}) })
	doneC.Get(p)
}

// creditGate is a counting semaphore for outstanding reads. Chunks that
// find no credit wait in a FIFO ring.
type creditGate struct {
	avail int
	q     sim.Queue[*readChunk]
}

func newCreditGate(n int) *creditGate { return &creditGate{avail: n} }

// acquire takes a credit for c and reports true, or queues c and reports
// false.
func (g *creditGate) acquire(c *readChunk) bool {
	if g.avail > 0 {
		g.avail--
		return true
	}
	g.q.Push(c)
	return false
}

// release hands the freed credit to the oldest waiting chunk, which it
// returns for the caller to send, or returns the credit to the pool.
func (g *creditGate) release() *readChunk {
	if g.q.Len() > 0 {
		return g.q.Pop()
	}
	g.avail++
	return nil
}

package serve

import (
	"fmt"

	"snacc/internal/ethernet"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
	"snacc/internal/workload"
)

// Config tunes the serving tier. The zero value of every field selects the
// documented default.
type Config struct {
	// DispatchDepth bounds requests decoded off the wire but not yet
	// issued to the backend. This is the knob that closes the backpressure
	// loop: a full dispatch queue stalls the receive process, the MAC's
	// rx FIFO fills, and 802.3x pause frames throttle the client.
	// Default 256.
	DispatchDepth int
	// DispatchBatch is how many queued requests the dispatcher issues to
	// the backend per wakeup (the doorbell-batching idea applied to RPC
	// dispatch). Default 16.
	DispatchBatch int
	// FrameBatch caps the request/response capsules coalesced into one
	// Ethernet frame. Default 32.
	FrameBatch int
	// ClientBacklog bounds capsules the open-loop client holds while the
	// link is paused; arrivals beyond it are shed oldest-first and counted
	// as drops. Default 4096.
	ClientBacklog int
	// LaneWindow bounds requests in flight per backend lane; the
	// dispatcher blocks at the cap, which is what fills the dispatch
	// queue when the backend is slow. Default 64.
	LaneWindow int
	// RetryTick is the client's poll interval while the link refuses new
	// frames. Default 2µs.
	RetryTick sim.Time
	// Ethernet configures both MACs; the zero value means
	// ethernet.DefaultConfig (100 G, pause enabled).
	Ethernet ethernet.Config
}

func (c Config) withDefaults() Config {
	if c.DispatchDepth == 0 {
		c.DispatchDepth = 256
	}
	if c.DispatchBatch == 0 {
		c.DispatchBatch = 16
	}
	if c.FrameBatch == 0 {
		c.FrameBatch = 32
	}
	if c.ClientBacklog == 0 {
		c.ClientBacklog = 4096
	}
	if c.LaneWindow == 0 {
		c.LaneWindow = 64
	}
	if c.RetryTick == 0 {
		c.RetryTick = 2 * sim.Microsecond
	}
	if c.Ethernet.BitsPerSec == 0 {
		c.Ethernet = ethernet.DefaultConfig()
	}
	return c
}

func (c Config) validate() error {
	switch {
	case c.DispatchDepth < 1:
		return fmt.Errorf("serve: dispatch depth must be positive")
	case c.DispatchBatch < 1 || c.DispatchBatch > c.DispatchDepth:
		return fmt.Errorf("serve: dispatch batch must be in [1, depth]")
	case c.FrameBatch < 1:
		return fmt.Errorf("serve: frame batch must be positive")
	case c.ClientBacklog < 1:
		return fmt.Errorf("serve: client backlog must be positive")
	case c.LaneWindow < 1:
		return fmt.Errorf("serve: lane window must be positive")
	case c.RetryTick <= 0:
		return fmt.Errorf("serve: retry tick must be positive")
	}
	return nil
}

// pending is one request the client has generated but not yet put on the
// wire.
type pending struct {
	req Request
	due sim.Time
}

// Tier wires an open-loop client population to a storage backend over one
// simulated Ethernet link. The client side generates timed arrivals,
// coalesces request capsules into frames, and sheds load once the paused
// link backs its bounded backlog up; the server side decodes frames, tracks
// connections, and batches requests into the backend, blocking — and
// therefore pausing the wire — when the dispatch queue fills. All state is
// partitioned by side: client processes touch only client fields, server
// processes only server fields, and the two communicate exclusively through
// encoded frames, as a real client and server across a wire would.
type Tier struct {
	cfg     Config
	spec    workload.OpenLoopSpec
	backend streamer.IO

	k      *sim.Kernel
	cliMAC *ethernet.MAC
	srvMAC *ethernet.MAC

	// Client-side state.
	gen         *workload.OpenLoop
	pendq       []pending
	outstanding map[uint64]sim.Time
	started     bool
	startAt     sim.Time
	lastResp    sim.Time
	sent        int64
	dropped     int64
	completed   int64
	failed      int64
	unmatched   int64
	cliMalf     int64
	bytesRead   int64
	bytesWrit   int64
	latency     obs.Hist

	// Server-side state.
	table     *ConnTable
	dispatchQ *sim.Chan[Request]
	respQ     *sim.Chan[Response]
	pendRead  []*sim.Chan[Request]
	pendWrite []*sim.Chan[Request]
	peakDisp  int
	srvMalf   int64
	rejected  int64
}

// New builds a serving tier with both sides on kernel k.
func New(k *sim.Kernel, cfg Config, spec workload.OpenLoopSpec, backend streamer.IO) (*Tier, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	gen, err := workload.NewOpenLoop(spec)
	if err != nil {
		return nil, err
	}
	if backend == nil || backend.Lanes() < 1 {
		return nil, fmt.Errorf("serve: backend with at least one lane required")
	}
	if spec.Tenants > 1 && backend.Lanes() < spec.Tenants {
		return nil, fmt.Errorf("serve: %d tenants need %d backend lanes, have %d",
			spec.Tenants, spec.Tenants, backend.Lanes())
	}
	table, err := NewConnTable(spec.Clients)
	if err != nil {
		return nil, err
	}

	t := &Tier{
		cfg:         cfg,
		spec:        spec,
		backend:     backend,
		k:           k,
		gen:         gen,
		outstanding: make(map[uint64]sim.Time),
		table:       table,
		dispatchQ:   sim.NewChan[Request](k, cfg.DispatchDepth),
		respQ:       sim.NewChan[Response](k, cfg.DispatchDepth),
	}
	t.cliMAC = ethernet.NewMAC(k, "serve.cli", cfg.Ethernet)
	t.srvMAC = ethernet.NewMAC(k, "serve.srv", cfg.Ethernet)
	ethernet.Connect(t.cliMAC, t.srvMAC)

	lanes := backend.Lanes()
	t.pendRead = make([]*sim.Chan[Request], lanes)
	t.pendWrite = make([]*sim.Chan[Request], lanes)
	for i := 0; i < lanes; i++ {
		t.pendRead[i] = sim.NewChan[Request](k, cfg.LaneWindow)
		t.pendWrite[i] = sim.NewChan[Request](k, cfg.LaneWindow)
		lane := i
		k.Spawn(fmt.Sprintf("serve.rdrain%d", lane), func(p *sim.Proc) {
			p.SetDaemon(true)
			t.drainLoop(p, lane, true)
		})
		k.Spawn(fmt.Sprintf("serve.wdrain%d", lane), func(p *sim.Proc) {
			p.SetDaemon(true)
			t.drainLoop(p, lane, false)
		})
	}
	k.Spawn("serve.rx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.serverRxLoop(p)
	})
	k.Spawn("serve.dispatch", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.dispatchLoop(p)
	})
	k.Spawn("serve.resptx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.respTxLoop(p)
	})
	k.Spawn("serve.clirx", func(p *sim.Proc) {
		p.SetDaemon(true)
		t.clientRxLoop(p)
	})
	return t, nil
}

// Start schedules the open-loop sender at time at (which must not be in the
// kernel's past). The arrival clock starts there: an arrival due at
// stream time d goes on the wire no earlier than at+d.
func (t *Tier) Start(at sim.Time) error {
	if t.started {
		return fmt.Errorf("serve: tier already started")
	}
	t.started = true
	t.startAt = at
	t.lastResp = at
	t.k.At(at, func() {
		t.k.Spawn("serve.sender", t.senderLoop)
	})
	return nil
}

// senderLoop is the open-loop client: it walks the arrival stream in due
// order, holds generated capsules in a bounded backlog while the link is
// busy or paused, and sheds oldest-first past the bound. It is the only
// non-daemon process in the tier; the simulation quiesces once it finishes
// and the in-flight frames drain.
func (t *Tier) senderLoop(p *sim.Proc) {
	for {
		a, ok := t.gen.Next()
		if !ok {
			break
		}
		due := t.startAt + a.Due
		if wait := due - p.Now(); wait > 0 {
			t.flush()
			for wait > 0 {
				// Wake at the retry tick while backlogged so pause
				// release is noticed promptly; sleep straight to the
				// due time otherwise.
				step := wait
				if len(t.pendq) > 0 && t.cfg.RetryTick < step {
					step = t.cfg.RetryTick
				}
				p.Sleep(step)
				t.flush()
				wait = due - p.Now()
			}
		}
		t.enqueue(a, due)
		t.flush()
	}
	// Drain the tail: everything still backlogged either goes out or is
	// shed by later arrivals — and no arrivals remain, so only the link
	// reopening empties it.
	for len(t.pendq) > 0 {
		if !t.flush() {
			p.Sleep(t.cfg.RetryTick)
		}
	}
}

// enqueue appends one arrival to the backlog, shedding the oldest entries
// once the backlog exceeds its bound.
func (t *Tier) enqueue(a workload.Arrival, due sim.Time) {
	req := Request{
		ID:     a.ID,
		Conn:   a.Conn,
		Tenant: a.Tenant,
		Op:     OpRead,
		Addr:   a.Addr,
		N:      a.N,
	}
	if !a.Read {
		req.Op = OpWrite
	}
	if a.Fin {
		req.Flags |= FlagFin
	}
	t.pendq = append(t.pendq, pending{req: req, due: due})
	for len(t.pendq) > t.cfg.ClientBacklog {
		t.pendq = t.pendq[1:]
		t.dropped++
	}
}

// flush coalesces backlogged capsules into frames and hands them to the
// MAC until it refuses (tx queue full — paused or line-saturated) or the
// backlog empties. It reports whether any frame was accepted.
func (t *Tier) flush() bool {
	progress := false
	for len(t.pendq) > 0 {
		n := len(t.pendq)
		if n > t.cfg.FrameBatch {
			n = t.cfg.FrameBatch
		}
		var f ethernet.Frame
		for _, pe := range t.pendq[:n] {
			f.Data = AppendRequest(f.Data, pe.req)
			f.Bytes += pe.req.WireBytes()
		}
		if !t.cliMAC.TrySend(f) {
			return progress
		}
		for _, pe := range t.pendq[:n] {
			t.outstanding[pe.req.ID] = pe.due
		}
		t.sent += int64(n)
		t.pendq = t.pendq[n:]
		progress = true
	}
	return progress
}

// clientRxLoop decodes response frames and closes the loop on latency:
// each response's latency is measured from its arrival's due time, so time
// spent backlogged behind a paused link counts against the tail.
func (t *Tier) clientRxLoop(p *sim.Proc) {
	for {
		f := t.cliMAC.Recv(p)
		b := f.Data
		for len(b) > 0 {
			resp, n, err := ParseResponse(b)
			if err != nil {
				t.cliMalf++
				break
			}
			b = b[n:]
			due, ok := t.outstanding[resp.ID]
			if !ok {
				t.unmatched++
				continue
			}
			delete(t.outstanding, resp.ID)
			if resp.Status != 0 {
				t.failed++
			} else {
				t.completed++
				if resp.Read {
					t.bytesRead += resp.N
				} else {
					t.bytesWrit += resp.N
				}
			}
			t.latency.Record(p.Now() - due)
			if p.Now() > t.lastResp {
				t.lastResp = p.Now()
			}
		}
	}
}

// serverRxLoop decodes request frames into the dispatch queue. The Put
// blocks when the queue is full; while this process is blocked it is not
// receiving, the MAC's rx FIFO fills, and the pause machinery throttles
// the client — the backpressure loop the tier exists to close.
func (t *Tier) serverRxLoop(p *sim.Proc) {
	for {
		f := t.srvMAC.Recv(p)
		b := f.Data
		for len(b) > 0 {
			req, n, err := ParseRequest(b)
			if err != nil {
				t.srvMalf++
				break
			}
			b = b[n:]
			if !t.table.Touch(req.Conn, req.Tenant, req.ID, int64(p.Now())) {
				t.rejected++
				continue
			}
			if req.Fin() {
				t.table.Close(req.Conn)
			}
			t.dispatchQ.Put(p, req)
			if d := t.dispatchQ.Len(); d > t.peakDisp {
				t.peakDisp = d
			}
		}
	}
}

// dispatchLoop batches queued requests into the backend, up to
// DispatchBatch per wakeup. The bounded per-lane pend channels block it
// when the backend falls behind, which is what lets the dispatch queue
// fill and trip the pause thresholds upstream.
func (t *Tier) dispatchLoop(p *sim.Proc) {
	for {
		req := t.dispatchQ.Get(p)
		for issued := 0; ; issued++ {
			lane := 0
			if t.backend.Lanes() > 1 {
				lane = int(req.Tenant)
			}
			if req.Op == OpRead {
				t.backend.ReadAsync(p, lane, req.Addr, req.N)
				t.pendRead[lane].Put(p, req)
			} else {
				t.backend.WriteAsync(p, lane, req.Addr, req.N, nil)
				t.pendWrite[lane].Put(p, req)
			}
			if issued+1 >= t.cfg.DispatchBatch {
				break
			}
			var ok bool
			req, ok = t.dispatchQ.TryGet()
			if !ok {
				break
			}
		}
	}
}

// drainLoop pairs one lane-direction's completions with the requests that
// issued them (the backend contract is in-order per lane and direction)
// and queues the responses for transmission.
func (t *Tier) drainLoop(p *sim.Proc, lane int, read bool) {
	pend := t.pendWrite[lane]
	if read {
		pend = t.pendRead[lane]
	}
	for {
		req := pend.Get(p)
		var err error
		if read {
			_, err = t.backend.ReadDone(p, lane)
		} else {
			err = t.backend.WriteDone(p, lane)
		}
		t.table.Done(req.Conn)
		resp := Response{
			ID:     req.ID,
			Conn:   req.Conn,
			Tenant: req.Tenant,
			N:      req.N,
			Read:   read,
		}
		if err != nil {
			resp.Status = 1
			resp.N = 0
		}
		t.respQ.Put(p, resp)
	}
}

// respTxLoop coalesces completed responses into frames headed back to the
// client. Send blocks on a full tx queue — the response path is allowed to
// backpressure the drains.
func (t *Tier) respTxLoop(p *sim.Proc) {
	for {
		resp := t.respQ.Get(p)
		var f ethernet.Frame
		for n := 0; ; n++ {
			f.Data = AppendResponse(f.Data, resp)
			f.Bytes += resp.WireBytes()
			if n+1 >= t.cfg.FrameBatch {
				break
			}
			var ok bool
			resp, ok = t.respQ.TryGet()
			if !ok {
				break
			}
		}
		t.srvMAC.Send(p, f)
	}
}

// Report is the tier's result summary. It contains no slices or pointers,
// so two runs' reports compare with == — the kernel-worker identity tests
// rely on that.
type Report struct {
	// Clients is the simulated client population.
	Clients int
	// Generated counts arrivals produced by the open-loop engine; Sent
	// the capsules that made it onto the wire; Dropped the arrivals shed
	// from the backlog while the link was paused.
	Generated, Sent, Dropped int64
	// Completed / Failed / Unmatched partition the responses received.
	Completed, Failed, Unmatched int64
	// Malformed counts undecodable capsules (client + server side);
	// Rejected counts requests with out-of-range connection ids.
	Malformed, Rejected int64
	// BytesRead / BytesWritten are goodput payload bytes.
	BytesRead, BytesWritten int64
	// Elapsed spans tier start to the last response.
	Elapsed sim.Time
	// Latency is the due-to-response distribution (backlog time counts).
	Latency obs.Hist
	// PeakDispatch / DispatchCap report the dispatch-queue high-water
	// mark against its bound.
	PeakDispatch, DispatchCap int
	// PeakConns / ConnCapacity / ConnStateBytes report the connection
	// table: highest concurrent occupancy, addressable clients, and the
	// table's memory footprint.
	PeakConns, ConnCapacity int
	ConnStateBytes          int64
	// Opens / Closes count connection-table transitions.
	Opens, Closes uint64
	// PausesSent / PausesHonored / FramesDropped surface the 802.3x
	// flow-control activity on the server's MAC pair.
	PausesSent, PausesHonored int64
	FramesDropped             int64
}

// GoodputMBps is payload megabytes per wall-second completed end-to-end.
func (r Report) GoodputMBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.BytesRead+r.BytesWritten) / r.Elapsed.Seconds() / 1e6
}

// Report summarizes the run; call it after the simulation quiesces.
func (t *Tier) Report() Report {
	return Report{
		Clients:        t.spec.Clients,
		Generated:      t.gen.Generated(),
		Sent:           t.sent,
		Dropped:        t.dropped,
		Completed:      t.completed,
		Failed:         t.failed,
		Unmatched:      t.unmatched,
		Malformed:      t.cliMalf + t.srvMalf,
		Rejected:       t.rejected,
		BytesRead:      t.bytesRead,
		BytesWritten:   t.bytesWrit,
		Elapsed:        t.lastResp - t.startAt,
		Latency:        t.latency,
		PeakDispatch:   t.peakDisp,
		DispatchCap:    t.cfg.DispatchDepth,
		PeakConns:      t.table.Peak(),
		ConnCapacity:   t.table.Capacity(),
		ConnStateBytes: t.table.StateBytes(),
		Opens:          t.table.Opens(),
		Closes:         t.table.Closes(),
		PausesSent:     t.srvMAC.PausesSent(),
		PausesHonored:  t.cliMAC.PausesHonored(),
		FramesDropped:  t.cliMAC.FramesDropped() + t.srvMAC.FramesDropped(),
	}
}

package tapasco

import "snacc/internal/streamer"

// Counters is a node's counter snapshot: the counters of every Streamer
// bound to the platform, summed, with the PCIe payload its ports received
// and the span accounting of the tracer handed to TraceSpans.
type Counters struct {
	streamer.Counters
	// PCIe payload delivered into the card port, into every SSD port
	// (summed), and into the host port: the paper's Figure 7 quantities.
	PCIeCardRx int64
	PCIeSSDRx  int64
	PCIeHostRx int64
	// Span accounting (all 0 without TraceSpans): spans opened and closed
	// (equal once the workload drains, the core tracing invariant),
	// completed spans dropped past the retention limit, and pipeline events
	// that arrived after their command resolved.
	SpansOpened     int64
	SpansClosed     int64
	SpansDropped    int64
	TraceLateEvents int64
}

// Add sums o into c, field by field.
func (c *Counters) Add(o Counters) {
	c.Counters.Add(o.Counters)
	c.PCIeCardRx += o.PCIeCardRx
	c.PCIeSSDRx += o.PCIeSSDRx
	c.PCIeHostRx += o.PCIeHostRx
	c.SpansOpened += o.SpansOpened
	c.SpansClosed += o.SpansClosed
	c.SpansDropped += o.SpansDropped
	c.TraceLateEvents += o.TraceLateEvents
}

// Counters snapshots the platform's counters.
func (pl *Platform) Counters() Counters {
	c := Counters{
		PCIeCardRx:      pl.Card.PayloadRx(),
		PCIeHostRx:      pl.Host.Port.PayloadRx(),
		SpansOpened:     pl.tr.Opened(),
		SpansClosed:     pl.tr.Closed(),
		SpansDropped:    pl.tr.Dropped(),
		TraceLateEvents: pl.tr.LateEvents(),
	}
	for _, b := range pl.binds {
		c.Counters.Add(b.st.Counters())
	}
	for _, dev := range pl.ssds {
		c.PCIeSSDRx += dev.Port().PayloadRx()
	}
	return c
}

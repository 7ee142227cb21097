package streamer

import (
	"fmt"

	"snacc/internal/axis"
	"snacc/internal/bufpool"
	"snacc/internal/sim"
)

// IO is the one host-side interface to Streamer-backed storage: the paper's
// four AXI4-Stream channels (read command, read data, write, write
// response; §4.1) as an error-returning, lane-addressed async API. A lane is
// an in-order pipeline: per lane and direction, completions return in issue
// order, one ReadDone per ReadAsync and one WriteDone per WriteAsync.
//
// Three types implement it. Client drives one stream quartet — a Streamer's
// or a hub tenant's — and Striped a RAID-0 set of Streamers; both have one
// pipeline (Lanes() == 1) that every lane shares, so completions return in
// overall issue order and the lane number only tags the command's spans
// with a tenant. TenantHub decorates any IO with one lane per tenant, each
// an isolated LBA window under a QoS scheduler.
type IO interface {
	// Lanes is the number of independent in-order pipelines.
	Lanes() int
	// ReadAsync issues a read of n bytes at device byte address addr.
	ReadAsync(p *sim.Proc, lane int, addr uint64, n int64)
	// ReadDone waits for the lane's oldest outstanding read and returns its
	// content (nil in timing-only mode) and the first error flagged on it.
	// On error the data covers only the pieces that succeeded.
	ReadDone(p *sim.Proc, lane int) ([]byte, error)
	// WriteAsync streams a write of n bytes; data may be nil (timing-only).
	WriteAsync(p *sim.Proc, lane int, addr uint64, n int64, data []byte)
	// WriteDone waits for the lane's oldest outstanding write and returns
	// the worst error among its pieces, nil when every piece landed.
	WriteDone(p *sim.Proc, lane int) error
}

var (
	_ IO = (*Client)(nil)
	_ IO = (*Striped)(nil)
	_ IO = (*TenantHub)(nil)
)

// Ports is the PE-facing AXI4-Stream quartet (§4.1). A Streamer exposes
// one; a TenantHub gives each tenant its own.
type Ports struct {
	ReadCmd   *axis.Stream // PE → Streamer: ReadRequest metadata
	ReadData  *axis.Stream // Streamer → PE: read payload
	WriteIn   *axis.Stream // PE → Streamer: WriteRequest + data + TLAST
	WriteResp *axis.Stream // Streamer → PE: completion tokens
}

func newPorts(k *sim.Kernel, name string, cfg axis.Config) Ports {
	return Ports{
		ReadCmd:   axis.New(k, name+".rdcmd", cfg),
		ReadData:  axis.New(k, name+".rddata", cfg),
		WriteIn:   axis.New(k, name+".wr", cfg),
		WriteResp: axis.New(k, name+".wrresp", cfg),
	}
}

// Client drives one stream quartet the way a user PE does: it frames
// writes into data beats and drains read data up to TLAST. Tests,
// benchmarks, examples and the TenantHub (toward its backend and for each
// tenant) use it; the case study wires its own PEs directly to the streams.
type Client struct {
	ports Ports
	s     *Streamer // nil for a hub tenant's client
	// PktBytes is the data-beat packet granularity used on the write
	// stream. Defaults to 256 KiB.
	PktBytes int64
}

// NewClient wraps a streamer.
func NewClient(s *Streamer) *Client {
	return &Client{ports: s.Ports, s: s, PktBytes: 256 * sim.KiB}
}

// Streamer returns the wrapped streamer, or nil for a hub tenant's client.
func (c *Client) Streamer() *Streamer { return c.s }

// Lanes reports the client's single pipeline.
func (c *Client) Lanes() int { return 1 }

// ReadAsync issues a read command without consuming the data; lane tags
// the command's spans with a tenant.
func (c *Client) ReadAsync(p *sim.Proc, lane int, addr uint64, n int64) {
	c.ports.ReadCmd.Send(p, axis.Packet{Meta: ReadRequest{Addr: addr, Len: n, Tenant: lane}})
}

// ReadDone drains the packets of the oldest outstanding read (until TLAST).
// Failed pieces deliver no payload, so on error the content falls short of
// the request.
func (c *Client) ReadDone(p *sim.Proc, _ int) ([]byte, error) {
	_, data, err := c.drain(p, nil)
	return data, err
}

// drain receives one read's packets up to TLAST and returns the delivered
// byte count and the first error flagged on the stream. With out set it
// forwards every packet as it arrives (a TenantHub relaying its backend to
// a tenant); otherwise it returns the concatenated content (functional
// mode) and recycles the chunks.
func (c *Client) drain(p *sim.Proc, out *axis.Stream) (total int64, data []byte, err error) {
	for {
		pkt := c.ports.ReadData.Recv(p)
		if e, ok := pkt.Meta.(error); ok && err == nil {
			err = e
		}
		total += pkt.Bytes
		if out != nil {
			out.Send(p, pkt)
		} else if pkt.Data != nil {
			data = append(data, pkt.Data...)
			// The chunk was copied out above; hand it back to the pool
			// for the next chunk read.
			bufpool.Put(pkt.Data)
		}
		if pkt.Last {
			return total, data, err
		}
	}
}

// WriteAsync streams the write without waiting for the response token;
// lane tags the command's spans with a tenant. A non-positive n sends a
// bare TLAST header so the stream stays framed.
func (c *Client) WriteAsync(p *sim.Proc, lane int, addr uint64, n int64, data []byte) {
	c.ports.WriteIn.Send(p, axis.Packet{Meta: WriteRequest{Addr: addr, Tenant: lane}, Last: n <= 0})
	var off int64
	for off < n {
		m := c.PktBytes
		if m > n-off {
			m = n - off
		}
		var d []byte
		if data != nil {
			d = data[off : off+m]
		}
		off += m
		c.ports.WriteIn.Send(p, axis.Packet{Bytes: m, Data: d, Last: off == n})
	}
}

// WriteDone consumes one write-response token and returns the error flag
// it carries when any piece of the write failed terminally.
func (c *Client) WriteDone(p *sim.Proc, _ int) error {
	if err, ok := c.ports.WriteResp.Recv(p).Meta.(error); ok {
		return err
	}
	return nil
}

// WriteErr is the blocking write: stream it, then wait for its token.
func (c *Client) WriteErr(p *sim.Proc, addr uint64, n int64, data []byte) error {
	c.WriteAsync(p, 0, addr, n, data)
	return c.WriteDone(p, 0)
}

// ReadErr is the blocking read of n bytes at device byte address addr.
func (c *Client) ReadErr(p *sim.Proc, addr uint64, n int64) ([]byte, error) {
	c.ReadAsync(p, 0, addr, n)
	got, data, err := c.drain(p, nil)
	if err == nil && got != n {
		err = fmt.Errorf("streamer: read of %d bytes at %#x delivered %d", n, addr, got)
	}
	return data, err
}

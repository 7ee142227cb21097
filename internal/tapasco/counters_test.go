package tapasco

import (
	"reflect"
	"testing"

	"snacc/internal/nvme"
	"snacc/internal/obs"
	"snacc/internal/sim"
	"snacc/internal/streamer"
)

// leafFields lists the fields of the struct v by name, descending into
// embedded structs.
func leafFields(v reflect.Value, out map[string]reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Struct {
			leafFields(f, out)
		} else {
			out[v.Type().Field(i).Name] = f
		}
	}
}

// TestCountersAddCoversEveryField sets every counter, the embedded
// Streamer counters included, to a distinct value and checks Add sums each
// one, so a field added to Counters but left out of Add fails here.
func TestCountersAddCoversEveryField(t *testing.T) {
	var a, b Counters
	fa, fb := map[string]reflect.Value{}, map[string]reflect.Value{}
	leafFields(reflect.ValueOf(&a).Elem(), fa)
	leafFields(reflect.ValueOf(&b).Elem(), fb)
	want := map[string]int64{}
	i := int64(1)
	for name, f := range fa {
		f.SetInt(i)
		fb[name].SetInt(100 * i)
		want[name] = 101 * i
		i++
	}
	a.Add(b)
	for name, f := range fa {
		if f.Int() != want[name] {
			t.Errorf("%s = %d after Add, want %d", name, f.Int(), want[name])
		}
	}
}

// TestCountersSumTwoSSDs runs a traced platform with one Streamer on each
// of two SSDs and checks its snapshot against the Streamers, ports and
// tracer it sums.
func TestCountersSumTwoSSDs(t *testing.T) {
	pl := NewPlatform(sim.NewKernel(), DefaultU280())
	defer pl.K.Close()
	var devs []*nvme.Device
	var sts []*streamer.Streamer
	for i, name := range []string{"A", "B"} {
		dev := pl.AddSSD(nvme.DefaultConfig("ssd"+name, testBAR+uint64(i)*0x100000))
		st := pl.AddStreamer(streamer.DefaultConfig("s"+name, 0, streamer.URAM))
		pl.Bind(dev, st)
		devs, sts = append(devs, dev), append(sts, st)
	}
	tr := obs.NewTracer(64)
	pl.TraceSpans(tr)
	if err := pl.Boot(); err != nil {
		t.Fatal(err)
	}
	pl.K.Spawn("pe", func(p *sim.Proc) {
		for i, st := range sts {
			c := streamer.NewClient(st)
			c.WriteErr(p, 0, int64(i+1)*sim.MiB, nil)
			c.ReadErr(p, 0, sim.MiB)
		}
	})
	pl.K.Run(0)

	got := pl.Counters()
	var want streamer.Counters
	for _, st := range sts {
		if st.CommandsRetired() == 0 {
			t.Fatalf("%s retired no commands", st.Config().Name)
		}
		want.Add(st.Counters())
	}
	if got.Counters != want {
		t.Errorf("Streamer counters %+v, want the sum %+v", got.Counters, want)
	}
	ssdRx := devs[0].Port().PayloadRx() + devs[1].Port().PayloadRx()
	if devs[0].Port().PayloadRx() == 0 || devs[1].Port().PayloadRx() == 0 || got.PCIeSSDRx != ssdRx {
		t.Errorf("PCIeSSDRx = %d, want > 0 on each SSD and the sum %d", got.PCIeSSDRx, ssdRx)
	}
	if got.PCIeCardRx == 0 || got.PCIeCardRx != pl.Card.PayloadRx() {
		t.Errorf("PCIeCardRx = %d, want the card port's %d > 0", got.PCIeCardRx, pl.Card.PayloadRx())
	}
	if got.PCIeHostRx == 0 || got.PCIeHostRx != pl.Host.Port.PayloadRx() {
		t.Errorf("PCIeHostRx = %d, want the host port's %d > 0", got.PCIeHostRx, pl.Host.Port.PayloadRx())
	}
	if got.SpansOpened == 0 || got.SpansOpened != tr.Opened() || got.SpansClosed != tr.Closed() ||
		got.SpansDropped != tr.Dropped() || got.TraceLateEvents != tr.LateEvents() {
		t.Errorf("spans %d/%d/%d/%d, want the tracer's %d/%d/%d/%d",
			got.SpansOpened, got.SpansClosed, got.SpansDropped, got.TraceLateEvents,
			tr.Opened(), tr.Closed(), tr.Dropped(), tr.LateEvents())
	}
}

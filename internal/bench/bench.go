// Package bench regenerates every table and figure in the paper's
// evaluation (§5, §6) plus the §7 ablations, as plain-Go experiment
// runners shared by the root-level benchmarks and the snaccbench CLI.
// Each runner builds a fresh simulated system, executes the paper's
// workload, and returns the rows the paper plots.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"snacc/internal/nvme"
	"snacc/internal/pcie"
	"snacc/internal/sim"
	"snacc/internal/spdk"
	"snacc/internal/streamer"
	"snacc/internal/tapasco"
)

const ssdBAR = 0x10_0000_0000

// Variants lists the three SNAcc configurations in paper order.
func Variants() []streamer.Variant {
	return []streamer.Variant{streamer.URAM, streamer.OnboardDRAM, streamer.HostDRAM}
}

// snaccRig is one assembled SNAcc system.
type snaccRig struct {
	k   *sim.Kernel
	pl  *tapasco.Platform
	dev *nvme.Device
	st  *streamer.Streamer
	c   *streamer.Client
}

// buildSNAcc assembles platform + SSD + streamer and runs initialization.
func buildSNAcc(v streamer.Variant, mutSt func(*streamer.Config), mutDev func(*nvme.Config)) *snaccRig {
	pl := tapasco.NewPlatform(sim.NewKernel(), tapasco.DefaultU280())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	if mutDev != nil {
		mutDev(&devCfg)
	}
	dev := pl.AddSSD(devCfg)
	stCfg := streamer.DefaultConfig("snacc0", 0, v)
	if mutSt != nil {
		mutSt(&stCfg)
	}
	st := pl.AddStreamer(stCfg)
	pl.Bind(dev, st)
	if err := pl.Boot(); err != nil {
		panic(err)
	}
	return &snaccRig{k: pl.K, pl: pl, dev: dev, st: st, c: streamer.NewClient(st)}
}

// measure runs fn in a fresh proc, drains the kernel and closes it: a rig
// measures once.
func (r *snaccRig) measure(fn func(p *sim.Proc)) {
	defer r.k.Close()
	r.k.Spawn("bench", fn)
	r.k.Run(0)
}

// measureSPDK assembles host + SSD, attaches the SPDK driver at queue depth
// qd (0 selects the default), runs fn against it, and closes the kernel.
func measureSPDK(qd int, mutDev func(*nvme.Config), fn func(p *sim.Proc, d *spdk.Driver)) {
	k := sim.NewKernel()
	defer k.Close()
	f := pcie.NewFabric(k, pcie.DefaultConfig())
	host := pcie.NewHost(f, pcie.DefaultHostConfig())
	devCfg := nvme.DefaultConfig("ssd0", ssdBAR)
	if mutDev != nil {
		mutDev(&devCfg)
	}
	nvme.New(k, f, devCfg)
	f.IOMMU().Grant("ssd0", pcie.DefaultHostConfig().MemBase, pcie.DefaultHostConfig().MemSize)
	cfg := spdk.DefaultDriverConfig()
	if qd > 0 {
		cfg.QueueDepth = qd
	}
	var drv *spdk.Driver
	k.Spawn("attach", func(p *sim.Proc) {
		d, err := spdk.Attach(p, host, ssdBAR, cfg)
		if err != nil {
			panic(err)
		}
		drv = d
	})
	k.Spawn("bench", func(p *sim.Proc) {
		for drv == nil {
			p.Sleep(10 * sim.Microsecond)
		}
		fn(p, drv)
	})
	k.Run(0)
}

// Table is a generic labelled result grid used by the CLI output.
type Table struct {
	Title   string
	Columns []string
	Rows    []TableRow
	Notes   []string
}

// TableRow is one labelled row of cells.
type TableRow struct {
	Label string
	Cells []string
}

// String renders an aligned text table.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len("variant")
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	for i, c := range t.Columns {
		widths[i+1] = len(c)
		for _, r := range t.Rows {
			if i < len(r.Cells) && len(r.Cells[i]) > widths[i+1] {
				widths[i+1] = len(r.Cells[i])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0]+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%*s  ", widths[i+1], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0]+2, r.Label)
		for i, c := range r.Cells {
			fmt.Fprintf(&b, "%*s  ", widths[i+1], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

func gb(v float64) string { return fmt.Sprintf("%.2f", v) }

// CSV renders the table as comma-separated values with a header row, for
// plotting outside the CLI.
func (t Table) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(strings.ReplaceAll(c, ",", ";"))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(strings.ReplaceAll(r.Label, ",", ";"))
		for _, c := range r.Cells {
			b.WriteByte(',')
			b.WriteString(strings.ReplaceAll(c, ",", ";"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as a JSON object with title, columns, rows (label
// plus cells) and notes, for machine consumption of regenerated results.
func (t Table) JSON() string {
	type jsonRow struct {
		Label string   `json:"label"`
		Cells []string `json:"cells"`
	}
	doc := struct {
		Title   string    `json:"title"`
		Columns []string  `json:"columns"`
		Rows    []jsonRow `json:"rows"`
		Notes   []string  `json:"notes,omitempty"`
	}{Title: t.Title, Columns: t.Columns, Notes: t.Notes}
	for _, r := range t.Rows {
		doc.Rows = append(doc.Rows, jsonRow{Label: r.Label, Cells: r.Cells})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		// Strings and slices of strings cannot fail to marshal.
		panic(err)
	}
	return string(out)
}

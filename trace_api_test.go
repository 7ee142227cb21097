package snacc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReplayTraceAPI(t *testing.T) {
	ops, err := ParseTrace(strings.NewReader("R 0 1M\nW 1M 1M\nR 2M 1M\n"))
	if err != nil {
		t.Fatal(err)
	}
	f := false
	sys := MustNewSystem(Options{Variant: URAM, Functional: &f})
	res, err := sys.ReplayTrace("api", ops)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reads != 2 || res.Writes != 1 {
		t.Fatalf("op mix %d/%d, want 2/1", res.Reads, res.Writes)
	}
	if got := res.BytesRead + res.BytesWritten; got != 3<<20 {
		t.Fatalf("moved %d bytes, want 3 MiB", got)
	}
}

// TestSpanMonotoneDeterministic extends the span-invariant property tests
// to the facade: every traced command must close exactly once with
// monotone stage timestamps, and a second run with the same options must
// record exactly the same span set.
func TestSpanMonotoneDeterministic(t *testing.T) {
	f := false
	run := func() []Span {
		sys := MustNewSystem(Options{Variant: URAM, Functional: &f, Trace: &TraceOptions{}})
		sys.Execute(func(h *Handle) {
			h.WriteTimed(0, 4<<20)
			h.ReadTimed(0, 4<<20)
		})
		st := sys.Stats()
		if st.SpansOpened == 0 || st.SpansOpened != st.SpansClosed {
			t.Fatalf("span leak (opened %d, closed %d)", st.SpansOpened, st.SpansClosed)
		}
		spans := sys.Spans()
		for _, sp := range spans {
			if !sp.Monotone() {
				t.Errorf("span %d has non-monotone stages %v", sp.ID, sp.Stages)
			}
		}
		return spans
	}
	if first, again := run(), run(); !reflect.DeepEqual(again, first) {
		t.Error("span set differs between two runs with the same options")
	}
}

func TestRecordAndFormatTraceAPI(t *testing.T) {
	spec := DefaultWorkload()
	spec.TotalBytes = 1 << 20
	ops, err := RecordTrace(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := FormatTrace(&buf, ops); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(ops) {
		t.Fatalf("round trip lost ops: %d vs %d", len(back), len(ops))
	}
}

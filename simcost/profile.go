package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// modules are the layers a CPU sample can be charged to. A sample goes to
// the innermost snacc/internal/<module> frame on its stack; runtime frames
// below that frame (allocation, write barriers, assists) go with it.
// Samples with no snacc frame at all (GC workers, scheduler) are
// "runtime"; the rest — the facade, the benchmark's own loop and internal
// packages not listed here — are "other".
var modules = []string{
	"sim", "pcie", "memmodel", "nvme", "streamer", "ethernet", "serve",
	"cluster", "casestudy", "imagestream", "obs", "workload", "tapasco",
	"fault", "axis", "bufpool", "runtime", "other",
}

// attribution accumulates sample counts per module over several profiles.
type attribution map[string]int64

// add decodes one gzipped runtime/pprof CPU profile and charges its
// samples.
func (a attribution) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	for _, s := range p.samples {
		a[p.module(s.locs)] += s.count
	}
	return nil
}

func (a attribution) total() int64 {
	var n int64
	for _, v := range a {
		n += v
	}
	return n
}

func (a attribution) share(module string) float64 {
	if t := a.total(); t > 0 {
		return float64(a[module]) / float64(t)
	}
	return 0
}

// The subset of profile.proto the attribution needs.
type profile struct {
	samples   []pbSample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]int64    // function id -> name string index
	strings   []string
}

type pbSample struct {
	locs  []uint64 // leaf first
	count int64
}

func (p *profile) module(locs []uint64) string {
	sawSnacc := false
	for _, l := range locs {
		for _, fn := range p.locations[l] {
			name := p.funcName(fn)
			if rest, ok := strings.CutPrefix(name, "snacc/internal/"); ok {
				mod := rest[:strings.IndexAny(rest+".", "./")]
				for _, m := range modules {
					if m == mod {
						return m
					}
				}
				return "other"
			}
			if strings.HasPrefix(name, "snacc") || strings.HasPrefix(name, "main.") {
				sawSnacc = true
			}
		}
	}
	if sawSnacc {
		return "other"
	}
	return "runtime"
}

func (p *profile) funcName(id uint64) string {
	if i := p.functions[id]; i >= 0 && int(i) < len(p.strings) {
		return p.strings[i]
	}
	return ""
}

var errProto = errors.New("malformed protobuf")

// fields walks one protobuf message, calling fn with each field's number,
// its varint value (wire types 0, 1 and 5) or its bytes (wire type 2).
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// repeated appends a repeated integer field, packed (data) or not (v).
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errProto
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := fields(b, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2: // sample
			var s pbSample
			var values []uint64
			err := fields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeated(s.locs, v, data)
				case 2:
					values, err = repeated(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // sample count
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line: function_id = 1
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = funcs
		case 5: // function
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

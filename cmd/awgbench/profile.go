package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the simulator modules CPU time is attributed to, named as in
// internal/<module>. Samples with no frame in one of them (GC workers, the
// scheduler, the profiler itself) count against "runtime".
var layers = []string{
	"event", "gpu", "mem", "syncmon", "cp", "policy", "core",
	"sim", "litmus", "kernels", "prog", "hashutil", "fault", "metrics",
}

const modulePrefix = "awgsim/internal/"

// layerOf maps a function name such as
// "awgsim/internal/gpu.(*Machine).handle" to its layer, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, modulePrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

// layerCPU decodes a gzipped pprof CPU profile and sums its CPU time per
// layer. Each sample goes to the layer of its innermost simulator frame,
// so allocation, map and memmove work counts against the caller that
// asked for it.
func layerCPU(gz []byte) (ns map[string]int64, samples int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	ns = map[string]int64{}
	for _, s := range p.samples {
		if len(s.values) < 2 {
			return nil, 0, errors.New("cpu profile: sample without a cpu value")
		}
		layer := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if l := layerOf(p.str(p.funcName[fn])); l != "" {
					layer = l
					break stack
				}
			}
		}
		samples += s.values[0]
		ns[layer] += s.values[1]
	}
	return ns, samples, nil
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64  // samples/count, cpu/nanoseconds
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// parseProfile decodes the fields of perftools.profiles.Profile that name
// samples, locations, functions and strings, skipping every other field.
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s profSample
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return appendUints(&s.locs, v, sub)
				case 2:
					var vs []uint64
					if err := appendUints(&vs, v, sub); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints appends a repeated integer field, packed (msg) or not (v).
func appendUints(dst *[]uint64, v uint64, msg []byte) error {
	if msg == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		msg = msg[n:]
	}
	return nil
}

// eachField walks a protobuf message, calling fn with each field's number
// and either its varint value or, for a length-delimited field, its bytes
// (never nil). Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(b) < w {
				return errors.New("truncated fixed field")
			}
			b = b[w:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated field")
			}
			msg = b[n : n+int(l) : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced phase runs under the runtime's CPU profiler. Every call into
// the sample loop carries the pprof label profLabel, which the loop's
// worker goroutines inherit, so the profile's labelled samples are
// exactly the engine's own per-sample work at its real worker count.
const profLabel = "perfbench"

// profLayers are the packages a labelled sample is charged to: the
// innermost frame of its stack that lies in one of them. Helpers shared by
// several layers (mem, cpu, isa, live, runtime) are charged to the layer
// that called them, so mem.NewFrom under ckpt.(*Replayer).Machine counts
// as restore and the same package's loads under comp as execution.
var profLayers = map[string]bool{
	"ckpt": true, "dbt": true, "comp": true, "inject": true, "par": true,
	"session": true, "graph": true, "artifact": true, "front": true, "obs": true,
}

const modulePrefix = "repro/internal/"

// labelled runs fn with the profiler label set on its context.
func labelled(ctx context.Context, fn func(context.Context)) {
	pprof.Do(ctx, pprof.Labels(profLabel, "1"), fn)
}

// cpuProfile collects a CPU profile until stop is called.
type cpuProfile struct {
	buf bytes.Buffer
}

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and returns the labelled samples' CPU time per
// layer in seconds; samples outside every layer count as "other".
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	return layerTimes(raw)
}

// layerTimes decodes the profile.proto message (only the fields it needs)
// and charges each labelled sample's CPU time to its layer.
func layerTimes(raw []byte) (map[string]float64, error) {
	var (
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name string index
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		samples []profSample
	)
	err := eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			s, err := decodeSample(b)
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line{function_id = 1}
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	for _, s := range samples {
		if !s.labelled(str) || len(s.values) < 2 {
			continue
		}
		layer := "other"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				name, ok := strings.CutPrefix(str(funcs[fn]), modulePrefix)
				if !ok {
					continue
				}
				if pkg, _, _ := strings.Cut(name, "."); profLayers[pkg] {
					layer = pkg
					break stack
				}
			}
		}
		out[layer] += float64(s.values[1]) / 1e9 // values: count, nanoseconds
	}
	return out, nil
}

type profSample struct {
	locs   []uint64 // leaf first
	values []uint64
	labels [][2]uint64 // key, string value (string indices)
}

func (s profSample) labelled(str func(uint64) string) bool {
	for _, l := range s.labels {
		if str(l[0]) == profLabel {
			return true
		}
	}
	return false
}

func decodeSample(b []byte) (profSample, error) {
	var s profSample
	err := eachField(b, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			s.locs = appendPacked(s.locs, v, b)
		case 2:
			s.values = appendPacked(s.values, v, b)
		case 3:
			var l [2]uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 || num == 2 {
					l[num-1] = v
				}
				return nil
			})
			s.labels = append(s.labels, l)
			return err
		}
		return nil
	})
	return s, err
}

// appendPacked appends a repeated varint field, which the encoder writes
// either packed (b holds the varints) or one value per field (v).
func appendPacked(xs []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(xs, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		xs = append(xs, x)
		b = b[n:]
	}
	return xs
}

var errProto = errors.New("malformed CPU profile")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or, for length-delimited fields, its
// bytes (non-nil).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(tag >> 3)
		switch tag & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			field := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, field); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

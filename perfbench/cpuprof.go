package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU attribution: the traced run records a CPU profile (runtime/pprof's
// gzipped protobuf) and this file charges every sample to one layer. The
// decoder reads only the profile.proto fields it needs, so the benchmark
// stays standard-library only.

// cpuLayers are the layers CPU is charged to, in report order.
var cpuLayers = []string{
	"sim", "vnet", "sal", "netstack", "dispatch", "bcode", "lb", "fs",
	"nethttp", "runtime.gc", "runtime.sched", "other",
}

// layerPackages maps a Go package path to its layer.
var layerPackages = map[string]string{
	"spin/internal/sim":      "sim",
	"spin/internal/vnet":     "vnet",
	"spin/internal/sal":      "sal",
	"spin/internal/netstack": "netstack",
	"spin/internal/dispatch": "dispatch",
	"spin/internal/bcode":    "bcode",
	"spin/internal/lb":       "lb",
	"spin/internal/fs":       "fs",
	"net/http":               "nethttp",
	"net/textproto":          "nethttp",
}

// gcFrames and schedFrames mark runtime work that belongs to the
// collector or the goroutine scheduler rather than to its caller.
var (
	gcFrames = []string{
		"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.scanblock", "runtime.scanstack",
		"runtime.greyobject", "runtime.sweepone", "runtime.wbBuf",
		"runtime.(*gcWork)", "runtime.(*mspan).sweep", "runtime.(*sweepLocked)",
	}
	schedFrames = []string{
		"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm",
		"runtime.stopm", "runtime.notesleep", "runtime.notewakeup", "runtime.mcall",
		"runtime.futex", "runtime.semacquire", "runtime.semrelease",
		"runtime.notifyList", "runtime.stealWork", "runtime.runqgrab",
		"runtime.lock2", "runtime.unlock2", "runtime.osyield", "runtime.usleep",
		"sync.runtime_", "sync.(*Cond)",
	}
)

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// packageOf extracts the package path from a symbol such as
// "spin/internal/vnet.(*half).Transmit".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf charges one stack (leaf first) to a layer: the leaf frame's
// package, except that runtime and other helper frames are charged to the
// nearest caller in a layer — unless the collector or the scheduler is
// reached first, which then takes the sample. It also returns the frame
// that decided.
func layerOf(stack []string) (layer, frame string) {
	for _, fn := range stack {
		switch {
		case hasPrefixAny(fn, gcFrames):
			return "runtime.gc", fn
		case hasPrefixAny(fn, schedFrames):
			return "runtime.sched", fn
		}
		if l, ok := layerPackages[packageOf(fn)]; ok {
			return l, fn
		}
	}
	if len(stack) > 0 {
		return "other", stack[0]
	}
	return "other", ""
}

// cpuByLayer parses a pprof CPU profile and adds each sample's CPU time,
// in nanoseconds, to its layer's total in byLayer and to the deciding
// frame's total in byFrame. It returns the number of samples.
func cpuByLayer(profile []byte, byLayer, byFrame map[string]float64) (int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return 0, fmt.Errorf("cpu profile: %w", err)
	}
	n := 0
	var stack []string
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		layer, frame := layerOf(stack)
		byLayer[layer] += v
		byFrame[frame] += v
		n++
	}
	return n, nil
}

// profile holds the decoded parts of a pprof profile: samples as location
// ids (leaf first) and values; locations as function ids (innermost
// inlined function first); functions as string-table indexes.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64
	functions map[uint64]int64
	strings   []string
}

type sample struct {
	locations []uint64
	values    []int64
}

// profile.proto field numbers used here.
const (
	fieldProfileSample   = 2
	fieldProfileLocation = 4
	fieldProfileFunction = 5
	fieldProfileString   = 6
	fieldSampleLocation  = 1
	fieldSampleValue     = 2
	fieldLocationID      = 1
	fieldLocationLine    = 4
	fieldLineFunction    = 1
	fieldFunctionID      = 1
	fieldFunctionName    = 2
)

var errProto = errors.New("malformed protobuf")

// pbField is one decoded protobuf field: varint fields carry v, length-
// delimited ones carry b.
type pbField struct {
	num  int
	wire int
	v    uint64
	b    []byte
}

// walk calls fn for every field of one protobuf message.
func walk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			f.b = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated integer field, packed or not.
func varints(f pbField, out []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(out, f.v), nil
	}
	b := f.b
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, v)
		b = b[n:]
	}
	return out, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := walk(raw, func(f pbField) error {
		switch f.num {
		case fieldProfileSample:
			var s sample
			err := walk(f.b, func(g pbField) error {
				var err error
				switch g.num {
				case fieldSampleLocation:
					s.locations, err = varints(g, s.locations)
				case fieldSampleValue:
					var vs []uint64
					vs, err = varints(g, nil)
					for _, v := range vs {
						s.values = append(s.values, int64(v))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := walk(f.b, func(g pbField) error {
				switch g.num {
				case fieldLocationID:
					id = g.v
				case fieldLocationLine:
					return walk(g.b, func(h pbField) error {
						if h.num == fieldLineFunction {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := walk(f.b, func(g pbField) error {
				switch g.num {
				case fieldFunctionID:
					id = g.v
				case fieldFunctionName:
					name = int64(g.v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case fieldProfileString:
			p.strings = append(p.strings, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

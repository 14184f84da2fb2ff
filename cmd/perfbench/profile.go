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

// shareGroups are the groups a CPU profile's samples fold into, by the
// package of each sample's leaf function. Every sample lands in exactly one
// group, so the shares sum to 1. runtime.map holds map access and key
// hashing; runtime holds the rest of the runtime, GC included.
var shareGroups = []string{
	"sim", "noc", "nvswitch", "gpu", "machine", "model", "kernel", "pool", "strategy",
	"memo", "serve", "faults", "trace", "attrib", "metrics", "fmt", "runtime", "runtime.map", "other",
}

// shareMetric names a group's per-layer metric.
func shareMetric(group string) string {
	if group == "runtime.map" {
		return "runtime.map_share"
	}
	return group + ".cpu_share"
}

// leafGroup maps a fully qualified Go function name to its share group.
func leafGroup(fn string) string {
	if strings.HasPrefix(fn, "type:.eq.") || strings.HasPrefix(fn, "type:.hash.") {
		return "runtime.map" // generated key equality and hashing
	}
	pkg := fn
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		if j := strings.Index(fn[i:], "."); j >= 0 {
			pkg = fn[:i+j]
		}
	} else if j := strings.Index(fn, "."); j >= 0 {
		pkg = fn[:j]
	}
	switch {
	case pkg == "internal/runtime/maps":
		return "runtime.map"
	case pkg == "runtime":
		name := fn[len("runtime."):]
		if strings.HasPrefix(name, "map") || strings.Contains(name, "hash") || strings.HasPrefix(name, "memequal") {
			return "runtime.map"
		}
		return "runtime"
	case strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "fmt":
		return "fmt"
	case strings.HasPrefix(pkg, "cais/internal/"):
		name := strings.TrimPrefix(pkg, "cais/internal/")
		for _, g := range shareGroups {
			if g == name {
				return g
			}
		}
	}
	return "other"
}

// foldProfile reads a gzipped pprof CPU profile and adds its sample counts
// to the groups of their leaf functions.
func foldProfile(data []byte, groups map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		fn := "?"
		if lines := p.locFuncs[s.locs[0]]; len(lines) > 0 {
			// The first line of a location is the innermost inlined frame.
			if name, ok := p.funcNames[lines[0]]; ok && name < uint64(len(p.strings)) {
				fn = p.strings[name]
			}
		}
		groups[leafGroup(fn)] += s.values[0]
	}
	return nil
}

// The subset of the pprof protobuf (profile.proto) that folding needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function id of each line
	funcNames map[uint64]uint64   // function id -> name string index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// Field numbers from profile.proto.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6
	sampleLocation  = 1
	sampleValue     = 2
	locID           = 1
	locLine         = 4
	lineFunction    = 1
	funcID          = 1
	funcName        = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]uint64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(sub, func(num int, v uint64, packed []byte) error {
				switch num {
				case sampleLocation:
					return appendVarints(&s.locs, v, packed)
				case sampleValue:
					var vals []uint64
					if err := appendVarints(&vals, v, packed); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var funcs []uint64
			err := eachField(sub, func(num int, v uint64, line []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(line, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case profFunction:
			var id, name uint64
			err := eachField(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = v
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case profStringTable:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errBadProfile
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

var errBadProfile = errors.New("profile: malformed protobuf")

// eachField walks a protobuf message, calling fn with each varint field's
// value or each length-delimited field's bytes (never nil for those).
func eachField(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(b) < 8 {
				return errBadProfile
			}
			b = b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProfile
			}
			sub := b[n : n+int(l) : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 5: // fixed32
			if len(b) < 4 {
				return errBadProfile
			}
			b = b[4:]
		default:
			return errBadProfile
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// pprof.go reads the CPU profiles runtime/pprof writes — a gzip'd
// profile.proto — with the standard library only: just the messages and
// fields the layer attribution needs (Profile, Sample, Location, Line,
// Function and the string table).

// cpuProfile is a decoded profile: for every sample its stack as function
// names, leaf first, inlined frames expanded, and its values.
type cpuProfile struct {
	// sampleTypes names each value column ("samples", "cpu").
	sampleTypes []string
	samples     []cpuSample
}

type cpuSample struct {
	stack  []string
	values []int64
}

var errTruncated = errors.New("truncated protobuf")

// protoField is one decoded field: its number, and either a varint value or
// a length-delimited payload.
type protoField struct {
	num   int
	wire  int
	value uint64
	bytes []byte
}

// readFields splits a protobuf message into its fields.
func readFields(b []byte) ([]protoField, error) {
	var out []protoField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := protoField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.value, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported protobuf wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints returns a repeated integer field's values, whether the
// writer packed them into one payload or emitted them one by one.
func repeatedVarints(f protoField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.value), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseCPUProfile decodes a gzip'd profile.proto.
func parseCPUProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := readFields(raw)
	if err != nil {
		return nil, err
	}

	var strs []string
	funcName := map[uint64]int{}      // function id → string index of its name
	locFuncs := map[uint64][]uint64{} // location id → function ids, leaf first
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var raws []rawSample
	var typeIdx []uint64

	for _, f := range top {
		switch f.num {
		case 1: // sample_type: ValueType{type=1, unit=2}
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			for _, g := range fs {
				if g.num == 1 {
					typeIdx = append(typeIdx, g.value)
				}
			}
		case 2: // sample: Sample{location_id=1, value=2}
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s rawSample
			for _, g := range fs {
				switch g.num {
				case 1:
					if s.locs, err = repeatedVarints(g, s.locs); err != nil {
						return nil, err
					}
				case 2:
					if s.values, err = repeatedVarints(g, s.values); err != nil {
						return nil, err
					}
				}
			}
			raws = append(raws, s)
		case 4: // location: Location{id=1, line=4}; Line{function_id=1}
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.value
				case 4:
					ls, err := readFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range ls {
						if l.num == 1 {
							fns = append(fns, l.value)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function: Function{id=1, name=2}
			fs, err := readFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int
			for _, g := range fs {
				switch g.num {
				case 1:
					id = g.value
				case 2:
					name = int(g.value)
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(f.bytes))
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	p := &cpuProfile{}
	for _, i := range typeIdx {
		p.sampleTypes = append(p.sampleTypes, str(i))
	}
	for _, r := range raws {
		s := cpuSample{values: make([]int64, len(r.values))}
		for i, v := range r.values {
			s.values[i] = int64(v)
		}
		// Locations are leaf first; within one location the lines are
		// leaf first too (the last line is the function the others were
		// inlined into).
		for _, loc := range r.locs {
			for _, fn := range locFuncs[loc] {
				s.stack = append(s.stack, str(uint64(funcName[fn])))
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

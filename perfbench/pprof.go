package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuProfile is the part of a runtime/pprof CPU profile the layer split
// needs: self CPU nanoseconds per leaf function.
type cpuProfile struct {
	selfNS  map[string]int64 // leaf function name -> CPU ns
	totalNS int64
}

// parseCPUProfile decodes a gzip-compressed pprof protobuf as written by
// runtime/pprof.StartCPUProfile. Only the fields needed to attribute
// each sample's CPU time to its innermost (leaf, inlined-into-nothing)
// function are read; everything else is skipped.
func parseCPUProfile(data []byte) (cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return cpuProfile{}, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return cpuProfile{}, fmt.Errorf("pprof: %w", err)
	}

	type sample struct{ locs, vals []uint64 }
	var (
		sampleTypes []uint64              // string-table index of each value's type
		samples     []sample              //
		locFunc     = map[uint64]uint64{} // location id -> innermost function id
		funcName    = map[uint64]uint64{} // function id -> string-table index
		strs        []string
	)
	err = walkProto(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			var typ uint64
			if err := walkProto(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typ = v
				}
				return nil
			}); err != nil {
				return err
			}
			sampleTypes = append(sampleTypes, typ)
		case 2: // sample: {location_id = 1, value = 2}
			var s sample
			if err := walkProto(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, p)
				case 2:
					s.vals = appendVarints(s.vals, v, p)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location: {id = 1, line = 4 {function_id = 1}}
			var id, fn uint64
			first := true
			if err := walkProto(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					// The first line is the innermost function; later
					// lines are the callers it was inlined into.
					if !first {
						return nil
					}
					first = false
					return walkProto(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fn = lv
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function: {id = 1, name = 2}
			var id, name uint64
			if err := walkProto(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return cpuProfile{}, err
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return cpuProfile{}, errors.New("pprof: profile has no cpu sample type")
	}
	out := cpuProfile{selfNS: map[string]int64{}}
	for _, s := range samples {
		if len(s.locs) == 0 || cpuIdx >= len(s.vals) {
			continue
		}
		ns := int64(s.vals[cpuIdx])
		name := str(funcName[locFunc[s.locs[0]]])
		out.selfNS[name] += ns
		out.totalNS += ns
	}
	return out, nil
}

// walkProto calls fn for each top-level field of a protobuf message:
// varint fields get their value, length-delimited fields their bytes.
// Fixed-width fields are skipped.
func walkProto(b []byte, fn func(field int, v uint64, p []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			p := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, 0, p); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether it
// was written unpacked (v) or packed (p).
func appendVarints(dst []uint64, v uint64, p []byte) []uint64 {
	if p == nil {
		return append(dst, v)
	}
	for len(p) > 0 {
		x, n := uvarint(p)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		p = p[n:]
	}
	return dst
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

// funcPackage returns the import path of a pprof function name, e.g.
// "pktpredict/internal/hw" for "pktpredict/internal/hw.(*Cache).Access"
// and "sync/atomic" for "sync/atomic.(*Int64).Add".
func funcPackage(name string) string {
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i] // generic instantiation lists may contain '/' and '.'
	}
	slash := strings.LastIndexByte(head, '/') + 1
	if dot := strings.IndexByte(head[slash:], '.'); dot >= 0 {
		return name[:slash+dot]
	}
	return head
}

// cpuBuckets names the cpu.* layer buckets in print order; "other" takes
// every package no bucket claims.
var cpuBuckets = []string{
	"runtime", "lock", "go", "hw", "click",
	"aes", "iplookup", "netflow", "firewall", "dpi", "synth",
	"traffic", "handoff", "obs", "other",
}

// bucketOf maps a package import path to its cpu.* layer bucket.
func bucketOf(pkg string) string {
	const mod = "pktpredict/internal/"
	if rest, ok := strings.CutPrefix(pkg, mod); ok {
		switch rest {
		case "runtime":
			return "runtime"
		case "hw", "mem":
			return "hw"
		case "click", "elements", "apps":
			return "click"
		case "aes", "iplookup", "netflow", "firewall", "dpi", "synth", "handoff", "obs":
			return rest
		case "trafficgen", "nic", "netpkt", "rng":
			return "traffic"
		}
		return "other"
	}
	switch {
	case pkg == "sync" || pkg == "internal/sync" || pkg == "sync/atomic":
		return "lock"
	case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") || strings.HasPrefix(pkg, "runtime/internal/"):
		return "go"
	}
	return "other"
}

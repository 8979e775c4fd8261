package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// Host-time buckets a CPU profile folds into: one per repo package the
// benchmark drives, plus the Go runtime split in two, the benchmark's own
// code, and any other repo package.
var profileLayers = []string{
	"sim", "cachesim", "costmodel", "core", "msgs", "wire", "mem", "nic",
	"netstack", "fabric", "kvstore", "rpc", "loadgen", "workloads", "driver",
	"alloc", "gc", "bench", "other",
}

const internalPrefix = "cornflakes/internal/"

// profileHz is the CPU sampling rate of traced repetitions. Linux delivers
// CPU-time profiling signals at most once per scheduler tick, so a rate
// above the kernel's tick rate (250 Hz on common configurations) only
// mislabels the sample period.
const profileHz = 250

// startProfile begins a CPU profile at profileHz. pprof.StartCPUProfile
// keeps a rate set before it; the runtime then notes on standard error that
// pprof's own 100 Hz request was ignored.
func startProfile(w io.Writer) error {
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(w); err != nil {
		return fmt.Errorf("start cpu profile: %w", err)
	}
	return nil
}

// foldStack charges one sample to a bucket. Frames run leaf first. A stack
// holding runtime.mallocgc is allocation (malloc and GC assist); otherwise
// the innermost repo frame owns the sample, so container/heap, maps and
// memmove are charged to their caller; a stack with no repo frame is
// background GC and other runtime work.
func foldStack(frames []string) string {
	for _, f := range frames {
		if f == "runtime.mallocgc" {
			return "alloc"
		}
	}
	for _, f := range frames {
		if pkg, ok := strings.CutPrefix(f, internalPrefix); ok {
			if i := strings.IndexByte(pkg, '.'); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range profileLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	return "gc"
}

// foldProfile parses a gzipped pprof CPU profile and returns the sampled CPU
// nanoseconds per bucket and the sample count. It reads only the fields it
// needs from profile.proto: samples, locations, functions, and strings.
func foldProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("read profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("read profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("parse profile: %w", err)
	}
	out := map[string]int64{}
	var frames []string
	for _, s := range samples {
		if len(s.values) < 2 {
			return nil, 0, errors.New("parse profile: sample without a cpu value")
		}
		frames = frames[:0]
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out[foldStack(frames)] += s.values[1]
	}
	return out, int64(len(samples)), nil
}

// eachField walks one protobuf message, calling fn with each field's number
// and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		var v uint64
		var body []byte
		switch typ {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", typ)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field occurrence, which the
// runtime writes either unpacked (one value) or packed (a byte run).
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

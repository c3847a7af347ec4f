package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShareBuckets are the buckets CPU-profile samples are attributed to:
// the repository's modules by the package of the sample's leaf frame,
// plus the Go garbage collector, system calls and encoding/json. Samples
// in none of them (the runtime scheduler, the benchmark itself, other
// standard-library packages) count towards the total only.
var cpuShareBuckets = []string{
	"instrument", "msg", "rules", "manager", "runtime", "agent",
	"repository", "policy", "sim", "scenario", "telemetry",
	"telemetry-eventlog", "go-gc", "syscall", "encoding-json",
}

// moduleOf maps a fully qualified Go function name to its bucket, or ""
// when it belongs to none. stack lists the sample's frames leaf first;
// only GC attribution looks past the leaf.
func moduleOf(stack []string) string {
	if len(stack) == 0 {
		return ""
	}
	leaf := stack[0]
	pkg := funcPackage(leaf)
	switch {
	case strings.HasPrefix(pkg, "softqos/internal/"):
		mod := strings.TrimPrefix(pkg, "softqos/internal/")
		if mod == "telemetry/eventlog" {
			return "telemetry-eventlog"
		}
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		for _, b := range cpuShareBuckets {
			if b == mod {
				return mod
			}
		}
		return ""
	case pkg == "encoding/json":
		return "encoding-json"
	case pkg == "syscall" || pkg == "internal/runtime/syscall" ||
		leaf == "runtime.futex" || leaf == "runtime.epollwait" ||
		leaf == "runtime.usleep" || leaf == "runtime.nanotime1":
		return "syscall"
	case pkg == "runtime":
		for _, f := range stack {
			if f == "runtime.gcBgMarkWorker" || f == "runtime.gcAssistAlloc" ||
				f == "runtime.bgsweep" || f == "runtime.bgscavenge" ||
				f == "runtime.gcMarkTermination" || f == "runtime.markroot" {
				return "go-gc"
			}
		}
	}
	return ""
}

// funcPackage returns the import path of a function symbol such as
// "softqos/internal/msg.(*NetTransport).Send" -> "softqos/internal/msg".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares attributes the samples of a gzipped pprof CPU profile to
// cpuShareBuckets, weighting each sample by its CPU time. It returns each
// bucket's share of all samples and the total sampled CPU nanoseconds.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	weight := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		total += s.value
		if b := moduleOf(s.stack); b != "" {
			weight[b] += s.value
		}
	}
	out := make(map[string]float64, len(cpuShareBuckets))
	for _, b := range cpuShareBuckets {
		if total > 0 {
			out[b] = float64(weight[b]) / float64(total)
		} else {
			out[b] = 0
		}
	}
	return out, total, nil
}

// profSample is one decoded profile sample: its frames leaf first and
// its last value (CPU nanoseconds in a CPU profile).
type profSample struct {
	stack []string
	value int64
}

type decodedProfile struct {
	samples []profSample
}

// parseProfile decodes the subset of the pprof protobuf format
// (github.com/google/pprof/proto/profile.proto) attribution needs:
// samples, locations with their (inlined) lines, functions and the
// string table. Gzipped and raw input are both accepted.
func parseProfile(data []byte) (*decodedProfile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		data = raw
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, leaf (innermost inline) first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err := forEachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := forEachField(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, bb)
				case 2:
					for _, x := range appendVarints(nil, w, v, bb) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := forEachField(b, func(f, w int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return forEachField(bb, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := forEachField(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fid uint64) string {
		i := funcNames[fid]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := &decodedProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{value: s.vals[len(s.vals)-1]}
		for _, loc := range s.locs {
			for _, fid := range locFuncs[loc] {
				ps.stack = append(ps.stack, name(fid))
			}
		}
		out.samples = append(out.samples, ps)
	}
	return out, nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (wire type 2) or one value at a time (wire type 0).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("profile: truncated protobuf")

// forEachField walks a protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func forEachField(b []byte, fn func(field, wire int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		if c < 0x80 {
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, 0
}

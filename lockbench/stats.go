package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// percentile returns the q-quantile (0 < q ≤ 1) of samples by the
// nearest-rank rule; samples must be sorted ascending. Zero when empty.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of xs and returns its middle value (the mean of
// the two middle values for an even count). Zero when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, zero when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// perSecond is n events over d, zero for an empty window.
func perSecond(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}

// ratio is num/den, zero when den is zero (a layer the workload never
// reached reports zero work per cycle rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// promSnapshot is a parsed /metrics scrape.
type promSnapshot []promSample

// parseProm parses Prometheus text format 0.0.4 as lockd serves it:
// comments and blank lines are skipped, label values are quoted.
func parseProm(r io.Reader) (promSnapshot, error) {
	var out promSnapshot
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("metrics: malformed line %q", line)
	} else {
		s.name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.LastIndexByte(rest, '}')
		if end < 0 {
			return s, fmt.Errorf("metrics: unterminated labels in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		for body != "" {
			eq := strings.IndexByte(body, '=')
			if eq < 0 || eq+1 >= len(body) || body[eq+1] != '"' {
				return s, fmt.Errorf("metrics: malformed labels in %q", line)
			}
			key := body[:eq]
			val, n, err := unquoteLabel(body[eq+1:])
			if err != nil {
				return s, fmt.Errorf("metrics: %v in %q", err, line)
			}
			s.labels[key] = val
			body = strings.TrimPrefix(body[eq+1+n:], ",")
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("metrics: missing value in %q", line)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("metrics: bad value in %q: %v", line, err)
	}
	s.value = v
	return s, nil
}

// unquoteLabel reads one quoted label value from the front of s and
// returns it with the number of bytes consumed.
func unquoteLabel(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '\\':
			if i+1 >= len(s) {
				return "", 0, errors.New("dangling escape")
			}
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			default:
				b.WriteByte(s[i])
			}
		case '"':
			return b.String(), i + 1, nil
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, errors.New("unterminated label value")
}

// sum adds every series of the named family whose labels include all of
// match (nil matches every series).
func (p promSnapshot) sum(name string, match map[string]string) float64 {
	var total float64
	for _, s := range p {
		if s.name != name || !labelsMatch(s.labels, match) {
			continue
		}
		total += s.value
	}
	return total
}

func labelsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// promDelta is the change of counters between two scrapes of one or
// more members: after[i] − before[i], summed over the members.
type promDelta struct{ before, after []promSnapshot }

// sum is the summed counter delta of a family across members.
func (d promDelta) sum(name string, match map[string]string) float64 {
	var total float64
	for i := range d.after {
		total += d.after[i].sum(name, match)
		if i < len(d.before) {
			total -= d.before[i].sum(name, match)
		}
	}
	return total
}

// histMean is the mean observation a histogram family recorded in the
// window, from its _sum and _count series (zero for an empty window).
func (d promDelta) histMean(family string, match map[string]string) float64 {
	return ratio(d.sum(family+"_sum", match), d.histCount(family, match))
}

// histCount is the number of observations a histogram family recorded
// in the window.
func (d promDelta) histCount(family string, match map[string]string) float64 {
	return d.sum(family+"_count", match)
}

// cpuBuckets apportions CPU profile samples to the benchmark's layer
// buckets. Every sample lands in exactly one bucket, so the shares sum
// to one.
type cpuBuckets struct {
	total   int64
	buckets map[string]int64
}

func (c *cpuBuckets) share(bucket string) float64 {
	return ratio(float64(c.buckets[bucket]), float64(c.total))
}

// add folds one sample with the given stack (innermost frame first).
func (c *cpuBuckets) add(stack []string, value int64) {
	if c.buckets == nil {
		c.buckets = map[string]int64{}
	}
	c.total += value
	c.buckets[bucketOf(stack)] += value
}

// bucketOf names the layer a sample's CPU time belongs to. Garbage
// collection and allocation are charged to the runtime whichever layer
// triggered them, syscalls to the kernel boundary, everything else to
// the innermost hierlock package on the stack.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"),
			strings.HasPrefix(fn, "runtime.gcAssistAlloc"),
			strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"),
			strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.GC"):
			return "runtime_gc"
		}
	}
	if len(stack) > 0 {
		leaf := stack[0]
		if strings.HasPrefix(leaf, "syscall.") || strings.HasPrefix(leaf, "internal/runtime/syscall.") ||
			strings.HasPrefix(leaf, "runtime/internal/syscall.") || strings.HasPrefix(leaf, "internal/syscall/") {
			return "syscall"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.mallocgc") || strings.HasPrefix(fn, "runtime.newobject") ||
			strings.HasPrefix(fn, "runtime.growslice") || strings.HasPrefix(fn, "runtime.makeslice") {
			return "runtime_malloc"
		}
		if strings.HasPrefix(fn, "hierlock") {
			return layerOfFunc(fn)
		}
	}
	return "other"
}

// layerOfFunc maps a hierlock function symbol to its bucket: the
// internal package name, "member" for the root package (the Member
// runtime), and "telemetry" for the observability packages.
func layerOfFunc(fn string) string {
	if strings.HasPrefix(fn, "hierlock/lockbench") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "hierlock/internal/")
	if !ok {
		return "member"
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg, _, _ = strings.Cut(pkg, "/")
	switch pkg {
	case "trace", "audit", "introspect", "metrics", "profile", "watchdog":
		return "telemetry"
	}
	return pkg
}

// foldProfile decodes a gzipped pprof CPU profile and adds its samples
// (the last sample value, CPU nanoseconds) to c.
func foldProfile(c *cpuBuckets, data []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("pprof: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		stack := make([]string, 0, len(s.locs))
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				if name := p.funcNames[fid]; name >= 0 && int(name) < len(p.strings) {
					stack = append(stack, p.strings[name])
				}
			}
		}
		c.add(stack, s.values[len(s.values)-1])
	}
	return nil
}

// profile holds the parts of a pprof profile.proto the bucketing needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the uncompressed protobuf of a pprof profile:
// fields sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := walkProto(b, func(field int, wire int, v uint64, sub []byte) error {
		switch field {
		case 2:
			var s profSample
			err := walkProto(sub, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					return appendUints(&s.locs, w, v, sub)
				case 2:
					var u []uint64
					if err := appendUints(&u, w, v, sub); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := walkProto(sub, func(f, w int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walkProto(sub, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
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
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := walkProto(sub, func(f, w int, v uint64, _ []byte) error {
				switch f {
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
			p.funcNames[id] = name
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst *[]uint64, wire int, v uint64, sub []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("pprof: bad packed varint")
		}
		*dst = append(*dst, x)
		sub = sub[n:]
	}
	return nil
}

// walkProto calls fn for each field of one protobuf message: varints
// arrive in v, length-delimited fields in sub.
func walkProto(b []byte, fn func(field, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer of the program. Spans of one request
// or cell share Req; Parent is the index+1 of the enclosing span (0 = root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Req     string `json:"req,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory for the whole run and accumulates the CPU
// profiles of the traced passes. A nil *tracer records nothing, so untraced
// code paths call it unconditionally.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	prof    bytes.Buffer // the last profile, written out at exit
	samples map[string]int64
	total   int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string]int64{}}
}

// spanRef is an open span; end closes it.
type spanRef struct {
	t *tracer
	i int
}

// start opens a span named name under parent (a spanRef's id, 0 for none).
func (t *tracer) start(name string, parent int, req string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	return spanRef{t, len(t.spans) - 1}
}

func (s spanRef) end() {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	s.t.spans[s.i].EndNs = time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Unlock()
}

// id is the span's identifier for children's parent field (0 when off).
func (s spanRef) id() int {
	if s.t == nil {
		return 0
	}
	return s.i + 1
}

// profile runs fn under the CPU profiler and folds the samples into the
// per-layer buckets.
func (t *tracer) profile(fn func() error) error {
	t.prof.Reset()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	return t.fold(t.prof.Bytes())
}

// shares returns each layer's share of the profiled CPU time.
func (t *tracer) shares() map[string]float64 {
	out := make(map[string]float64, len(layerBuckets))
	for _, b := range layerBuckets {
		if t.total > 0 {
			out[b+".cpu_share"] = float64(t.samples[b]) / float64(t.total)
		} else {
			out[b+".cpu_share"] = 0
		}
	}
	return out
}

// write stores the spans and the last CPU profile under dir.
func (t *tracer) write(dir, base string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("creating trace directory: %w", err)
	}
	t.mu.Lock()
	raw, err := json.Marshal(map[string]any{"spans": t.spans})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".spans.json"), raw, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".cpu.pprof"), t.prof.Bytes(), 0o644); err != nil {
		return fmt.Errorf("writing CPU profile: %w", err)
	}
	return nil
}

// layerBuckets are the host-time buckets a CPU sample is charged to.
var layerBuckets = []string{
	"producer", "core", "vbox", "l2", "zbox", "sched", "sim", "workloads",
	"snapshot", "tables", "serve", "store", "confhash", "gc", "other",
}

// packageBucket maps a repro/internal package to its layer bucket.
var packageBucket = map[string]string{
	"vasm": "producer", "arch": "producer", "mem": "producer", "isa": "producer",
	"core": "core", "pipe": "core",
	"vbox": "vbox", "creorder": "vbox",
	"l2":    "l2",
	"zbox":  "zbox",
	"sched": "sched",
	"sim":   "sim", "metrics": "sim", "stats": "sim",
	"workloads": "workloads",
	"snapshot":  "snapshot",
	"tables":    "tables",
	"serve":     "serve", "dse": "serve",
	"store":    "store",
	"confhash": "confhash",
}

const internalPrefix = "repro/internal/"

// bucketOf charges one stack (leaf first) to a layer: the nearest
// repro/internal frame decides, so runtime frames (allocation, channel
// operations, map lookups) count against the layer that called them.
// Kernel closures in workloads run on the trace producer goroutine and
// count as producer time there. Stacks with no program frame are the
// garbage collector's when a runtime GC frame is on them, else other.
func bucketOf(stack []string) string {
	onProducer := false
	for _, fn := range stack {
		if strings.HasPrefix(fn, internalPrefix+"vasm.NewTrace.func") {
			onProducer = true
			break
		}
	}
	for _, fn := range stack {
		if !strings.HasPrefix(fn, internalPrefix) {
			continue
		}
		pkg := fn[len(internalPrefix):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		b, ok := packageBucket[pkg]
		if !ok {
			return "other"
		}
		if b == "workloads" && onProducer {
			return "producer"
		}
		return b
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") {
			return "gc"
		}
	}
	return "other"
}

// fold decodes a gzipped pprof CPU profile with the standard library alone
// and adds each sample's CPU time to its stack's bucket.
func (t *tracer) fold(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		v := s.values[len(s.values)-1] // CPU nanoseconds
		t.samples[bucketOf(stack)] += v
		t.total += v
	}
	return nil
}

// profileData is the subset of the pprof protobuf message fold needs.
type profileData struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type profSample struct {
	locs   []uint64 // leaf first
	values []int64
}

// decodeProfile parses the protobuf fields of perftools.profiles.Profile
// that fold needs: sample (2), location (4), function (5), string_table (6).
func decodeProfile(b []byte) (*profileData, error) {
	p := &profileData{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := protoFields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					return protoUints(v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return protoUints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := protoFields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(d, func(num int, v uint64, _ []byte) error {
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
		case 5:
			var id uint64
			var name int64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
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
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

// protoFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited payload.
func protoFields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := protoVarint(b)
		if n == 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = protoVarint(b)
			if n == 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
		case 2:
			l, n := protoVarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// protoUints yields a repeated integer field, packed (data) or not (v).
func protoUints(v uint64, data []byte, yield func(uint64)) error {
	if data == nil {
		yield(v)
		return nil
	}
	for len(data) > 0 {
		x, n := protoVarint(data)
		if n == 0 {
			return errors.New("truncated packed varint")
		}
		yield(x)
		data = data[n:]
	}
	return nil
}

// protoVarint decodes one base-128 varint, returning its length (0 when
// truncated).
func protoVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

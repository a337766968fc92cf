package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perm/internal/value"
)

// --- spans --------------------------------------------------------------------

// span is one timed call from the benchmark into a layer. Spans of one
// request share Req; Parent is the span that caused this one (0 = root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent, req uint64, name, class string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Class: class,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) record(name string, parent, req uint64, start, end time.Time) uint64 {
	id := t.newID()
	t.add(id, parent, req, name, "", start, end)
	return id
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// selfUS returns, per layer name and request class, the self times of the
// spans in microseconds: a span's duration minus what its children cover.
func (t *tracer) selfUS() map[string]map[string][]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[uint64]int64{}
	class := map[uint64]string{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
		if s.Class != "" {
			class[s.Req] = s.Class
		}
	}
	out := map[string]map[string][]float64{}
	for _, s := range t.spans {
		byClass := out[s.Name]
		if byClass == nil {
			byClass = map[string][]float64{}
			out[s.Name] = byClass
		}
		c := class[s.Req]
		byClass[c] = append(byClass[c], float64(s.End-s.Start-child[s.ID])/1e3)
	}
	return out
}

// --- statistics ---------------------------------------------------------------

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

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

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// percentiles describes a latency sample: the median and the highest of
// p90/p95/p99 that keeps at least ten samples beyond it.
func percentiles(name string, xs []float64) string {
	line := fmt.Sprintf("%-10s n=%-6d p50=%.3fms", name, len(xs), median(xs))
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(len(xs))*(1-q) >= 10 {
			return line + fmt.Sprintf(" p%.0f=%.3fms", q*100, quantile(xs, q))
		}
	}
	return line + " (too few samples for a tail percentile)"
}

// --- result digests -----------------------------------------------------------

// digest is an order-independent fingerprint of a bag of rows: the row count
// and the wrapping sum of a hash of each row.
type digest struct {
	Rows int64
	Sum  uint64
}

// add folds in one row given as driver values (int64, float64, string,
// bool or nil — what the perm driver returns).
func (d *digest) add(row []any) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range row {
		switch x := v.(type) {
		case nil:
			h.Write([]byte{'n'})
		case bool:
			if x {
				h.Write([]byte{'t'})
			} else {
				h.Write([]byte{'f'})
			}
		case int64:
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write([]byte{'i'})
			h.Write(b[:])
		case float64:
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			h.Write([]byte{'d'})
			h.Write(b[:])
		case string:
			binary.LittleEndian.PutUint64(b[:], uint64(len(x)))
			h.Write([]byte{'s'})
			h.Write(b[:])
			h.Write([]byte(x))
		case []byte:
			binary.LittleEndian.PutUint64(b[:], uint64(len(x)))
			h.Write([]byte{'s'})
			h.Write(b[:])
			h.Write(x)
		default:
			fmt.Fprintf(h, "?%T:%v", x, x)
		}
	}
	d.Rows++
	d.Sum += h.Sum64()
}

// addRow folds in an engine row, converted exactly as the driver converts it.
func (d *digest) addRow(row value.Row) {
	vals := make([]any, len(row))
	for i, v := range row {
		vals[i] = driverValue(v)
	}
	d.add(vals)
}

// driverValue converts an engine value to the Go value the driver uses.
func driverValue(v value.Value) any {
	switch v.K {
	case value.KindBool:
		return v.B
	case value.KindInt:
		return v.I
	case value.KindFloat:
		return v.F
	case value.KindString:
		return v.S
	}
	return nil
}

// --- runtime counters ---------------------------------------------------------

// runtimeCounters reads the process-wide allocation and CPU counters.
type runtimeCounters struct {
	allocBytes    float64
	gcCPU, allCPU float64
}

var counterNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCounters() runtimeCounters {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	get := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: get(0), gcCPU: get(1), allCPU: get(2)}
}

// heapSampler tracks the peak live heap of the whole process (server,
// replica and clients) while a workload runs: the heap each garbage
// collection found reachable, which unlike the heap between collections does
// not depend on when the collector happened to run.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

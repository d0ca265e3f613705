package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own call sites. ID identifies the op, epoch or request the span
// belongs to; Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans keeps a traced run's spans in memory until the run ends. A nil
// *spans records nothing, so untraced runs pay one nil check per call.
type spans struct {
	t0   time.Time
	mu   sync.Mutex
	list []span
}

func newSpans(trace bool) *spans {
	if !trace {
		return nil
	}
	return &spans{t0: time.Now(), list: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index (-1 when not tracing).
func (s *spans) begin(name string, id int64, parent int32) int32 {
	if s == nil {
		return -1
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.list = append(s.list, span{Name: name, ID: id, Parent: parent, Start: now, End: -1})
	i := int32(len(s.list) - 1)
	s.mu.Unlock()
	return i
}

func (s *spans) end(i int32) {
	if s == nil {
		return
	}
	now := int64(time.Since(s.t0))
	s.mu.Lock()
	s.list[i].End = now
	s.mu.Unlock()
}

// selfTimes returns each span name's total self time (its duration minus
// the union of its children's intervals) and the summed root durations.
func (s *spans) selfTimes() (map[string]int64, map[string]int, int64) {
	children := make([][]int32, len(s.list))
	var rootTotal int64
	for i, sp := range s.list {
		if sp.Parent >= 0 {
			children[sp.Parent] = append(children[sp.Parent], int32(i))
		} else {
			rootTotal += sp.End - sp.Start
		}
	}
	self := map[string]int64{}
	count := map[string]int{}
	for i, sp := range s.list {
		self[sp.Name] += sp.End - sp.Start - covered(s.list, sp, children[i])
		count[sp.Name]++
	}
	return self, count, rootTotal
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(list []span, parent span, kids []int32) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(list[k].Start, parent.Start), min(list[k].End, parent.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
		} else {
			curB = max(curB, x[1])
		}
	}
	return total + curB - curA
}

// spanCost measures the recorder's own cost per begin/end pair.
func spanCost() time.Duration {
	const n = 100000
	s := newSpans(true)
	start := time.Now()
	for i := 0; i < n; i++ {
		s.end(s.begin("x", int64(i), -1))
	}
	return time.Since(start) / n
}

// finish writes the spans as JSONL to path, prints the self-time table
// to stderr, and stores the self-time shares and the recorder's
// estimated overhead on r.
func (s *spans) finish(r *run, path string, wall time.Duration) error {
	for i := range s.list {
		if s.list[i].End < 0 {
			return fmt.Errorf("span %s (%d) was never closed", s.list[i].Name, i)
		}
	}
	self, count, rootTotal := s.selfTimes()
	var selfSum int64
	for _, v := range self {
		selfSum += v
	}
	fmt.Fprintf(os.Stderr, "traced: %d spans, root time %.1f ms, self-time sum %.1f ms, wall %.1f ms\n",
		len(s.list), ms(time.Duration(rootTotal)), ms(time.Duration(selfSum)), ms(wall))
	fmt.Fprintf(os.Stderr, "%-20s %8s %12s %7s\n", "span", "count", "self ms", "share")
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "%-20s %8d %12.1f %6.1f%%\n", name, count[name],
			ms(time.Duration(self[name])), 100*float64(self[name])/float64(max(rootTotal, 1)))
	}
	for _, name := range selfSpans {
		r.metrics["self_frac."+name] = float64(self[name]) / float64(max(rootTotal, 1))
	}
	r.metrics["bench.trace_overhead_frac"] = float64(spanCost()) * float64(len(s.list)) / float64(max(rootTotal, 1))

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	fmt.Fprintf(os.Stderr, "traced: spans written to %s\n", path)
	return f.Close()
}

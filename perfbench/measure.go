package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"cffs/internal/cache"
	"cffs/internal/disk"
	"cffs/internal/obs"
)

// Op classes split the latency samples for read_p50_us, write_p50_us
// and meta_p50_us.
const (
	classRead = iota
	classWrite
	classMeta
	numClasses
)

// failedNs is the latency recorded for a failed op: a failure misses
// every latency limit, so it sorts above any real sample.
const failedNs = math.MaxInt64

// series is a list of latency samples cut into consecutive slices of
// the window.
type series struct {
	xs   []int64
	cuts []int // end index of each closed slice
}

func (s *series) slice(i int) []int64 {
	lo := 0
	if i > 0 {
		lo = s.cuts[i-1]
	}
	return s.xs[lo:s.cuts[i]]
}

// lats collects the per-op wall-clock latencies one client goroutine
// saw in a window, cut into slices. Throughput and percentiles are
// taken per slice and reported as the median over slices, so a burst
// of load from elsewhere on the host moves one slice, not the figure.
type lats struct {
	all         series
	class       [numClasses]series
	ops, failed int64
	checkNs     int64   // time spent checking outputs
	busyNs      []int64 // each slice's wall time less its checks
	cutCheckNs  int64
}

// record adds one op. A failed op counts as attempted and failed, and
// enters the overall samples at failedNs. A class below 0 leaves the
// op out of the per-class split (its steps are recorded with step).
func (l *lats) record(class int, ns int64, err error) {
	l.ops++
	if err != nil {
		l.failed++
		l.all.xs = append(l.all.xs, failedNs)
		return
	}
	l.all.xs = append(l.all.xs, ns)
	if class >= 0 {
		l.class[class].xs = append(l.class[class].xs, ns)
	}
}

// step adds a timed step of an op to one class only.
func (l *lats) step(class int, ns int64) {
	l.class[class].xs = append(l.class[class].xs, ns)
}

// cut closes the current slice, which lasted wallNs.
func (l *lats) cut(wallNs int64) {
	l.all.cuts = append(l.all.cuts, len(l.all.xs))
	for c := range l.class {
		l.class[c].cuts = append(l.class[c].cuts, len(l.class[c].xs))
	}
	l.busyNs = append(l.busyNs, wallNs-(l.checkNs-l.cutCheckNs))
	l.cutCheckNs = l.checkNs
}

// sliceDur is the slice length of the time-sliced workloads. Host
// preemption comes in bursts; short slices let the median step over
// the slices a burst hits.
const sliceDur = 50 * time.Millisecond

// slicer cuts a client's samples into slices on a grid of sliceDur
// from a common start, so concurrent clients' slices line up.
type slicer struct {
	l     *lats
	start time.Time // of the open slice
	next  time.Time // grid point that closes it
}

func newSlicer(l *lats, start time.Time) *slicer {
	return &slicer{l: l, start: start, next: start.Add(sliceDur)}
}

// tick cuts the open slice if its time is up, reporting whether it did.
func (s *slicer) tick(now time.Time) bool {
	if now.Before(s.next) {
		return false
	}
	for !now.Before(s.next) {
		s.next = s.next.Add(sliceDur)
	}
	s.finish(now)
	return true
}

// finish cuts the open slice, however short.
func (s *slicer) finish(now time.Time) {
	s.l.cut(int64(now.Sub(s.start)))
	s.start = now
}

// sliceStats are a window's wall-clock figures, each the median over
// slices.
type sliceStats struct {
	opsPerS float64
	p50     float64
	p90     float64
	p99     float64
	class   [numClasses]float64 // class p50s; 0 for a class with no samples
}

// statsOf merges the clients' slices index by index (the clients'
// slices cover the same stretches of time) and takes medians.
func statsOf(clients []*lats) sliceStats {
	n := -1
	for _, l := range clients {
		if n < 0 || len(l.busyNs) < n {
			n = len(l.busyNs)
		}
	}
	var rate, p50, p90, p99 []float64
	var cls [numClasses][]float64
	for i := 0; i < n; i++ {
		var all []int64
		var busy int64
		var ops int
		var byClass [numClasses][]int64
		for _, l := range clients {
			s := l.all.slice(i)
			all = append(all, s...)
			ops += len(s)
			busy += l.busyNs[i]
			for c := range byClass {
				byClass[c] = append(byClass[c], l.class[c].slice(i)...)
			}
		}
		if ops == 0 {
			continue
		}
		rate = append(rate, ratio(float64(ops), float64(busy)/float64(len(clients))/1e9))
		p50 = append(p50, quantile(all, 0.50))
		p90 = append(p90, quantile(all, 0.90))
		p99 = append(p99, quantile(all, 0.99))
		for c := range byClass {
			if len(byClass[c]) > 0 {
				cls[c] = append(cls[c], quantile(byClass[c], 0.50))
			}
		}
	}
	st := sliceStats{opsPerS: median(rate), p50: median(p50), p90: median(p90), p99: median(p99)}
	for c := range cls {
		st.class[c] = median(cls[c])
	}
	return st
}

// quantile is the nearest-rank q-quantile of xs in microseconds; xs is
// sorted in place. Empty input gives 0.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i]) / 1e3
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

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeNames are the Go runtime readings taken as window deltas.
var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

type runtimeReading [4]float64

func readRuntime() runtimeReading {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeReading
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			r[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			r[i] = s[i].Value.Float64()
		}
	}
	return r
}

// mark is every counter the benchmark reads, taken at one instant; a
// window's figures are the difference of two marks.
type mark struct {
	wall  time.Time
	simNs int64
	disk  disk.Stats
	cache cache.Stats
	reg   obs.Snapshot
	rt    runtimeReading
}

func takeMark(s *stack) mark {
	return mark{
		wall:  time.Now(),
		simNs: s.dev.Disk().Clock().Now(),
		disk:  s.dev.Disk().Stats(),
		cache: s.fs.Cache().Stats(),
		reg:   s.reg.Snapshot(),
		rt:    readRuntime(),
	}
}

// window is what happened between two marks.
type window struct {
	wallS float64
	simS  float64
	disk  disk.Stats
	cache cache.Stats
	reg   obs.Snapshot
	rt    runtimeReading
}

func between(a, b mark) window {
	w := window{
		wallS: b.wall.Sub(a.wall).Seconds(),
		simS:  float64(b.simNs-a.simNs) / 1e9,
		disk:  b.disk.Sub(a.disk),
		cache: cache.Stats{
			Hits:          b.cache.Hits - a.cache.Hits,
			Misses:        b.cache.Misses - a.cache.Misses,
			PrefetchFills: b.cache.PrefetchFills - a.cache.PrefetchFills,
			Evictions:     b.cache.Evictions - a.cache.Evictions,
			WriteBacks:    b.cache.WriteBacks - a.cache.WriteBacks,
		},
		reg: b.reg.Delta(a.reg),
	}
	for i := range w.rt {
		w.rt[i] = b.rt[i] - a.rt[i]
	}
	return w
}

// counterSum adds every counter whose name starts with prefix (labeled
// families such as srv.requests{op=..,tenant=..}).
func (w window) counterSum(prefix string) int64 {
	var n int64
	for name, v := range w.reg.Counters {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			n += v
		}
	}
	return n
}

// histMerge merges every histogram whose name starts with prefix.
func (w window) histMerge(prefix string) obs.HistSnapshot {
	var out obs.HistSnapshot
	byIdx := map[int]int64{}
	for name, h := range w.reg.Histograms {
		if len(name) < len(prefix) || name[:len(prefix)] != prefix {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		for _, b := range h.Buckets {
			byIdx[b.Index] += b.Count
		}
	}
	for i, c := range byIdx {
		out.Buckets = append(out.Buckets, obs.HistBucket{Index: i, Count: c})
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Index < out.Buckets[j].Index })
	return out
}

// heapLiveMB is the live heap after a full collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Command perfbench is the repository's benchmark: it runs one workload
// against C-FFS in cffsd's production configuration, checks every
// output, and prints the end-to-end metrics (untraced) or the per-layer
// metrics (traced) as one JSON object on its last line of output.
//
//	perfbench --workload smallfile|service|coldns --seed N --seconds S --trace 0|1
//
// See README.md in this directory for the workloads, the metrics and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"cffs/internal/srv"
)

// simTolerance is how far the traced pass's disk requests and simulated
// time may stray from the untraced pass's on the same work: the
// write-behind daemon runs on its own goroutine, so its flush points
// move slightly from run to run.
const simTolerance = 0.01

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "smallfile, service or coldns")
	seed := fl.Uint64("seed", 1, "seed the inputs are made from")
	seconds := fl.Float64("seconds", 10, "length of the measured window")
	traced := fl.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	wl, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload smallfile|service|coldns, --seconds > 0, --trace 0|1")
		return 2
	}
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%d\n", wl.name, *seed, *seconds, *traced)
	var rep *report
	if *traced == 0 {
		rep, err = untracedRun(wl, *seed, *seconds)
	} else {
		rep, err = tracedRun(wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		fmt.Println(`{"correct": false, "attempted": 1, "failed": 0, "metrics": {}}`)
		return 1
	}
	rep.print()
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func newReport(r *result) *report {
	ops, failed := r.ops()
	return &report{Correct: true, Attempted: ops, Failed: failed, Metrics: map[string]metric{}}
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, n := range names {
		fmt.Printf("%-34s %16.6f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a map of plain numbers and strings always marshals
	}
	fmt.Println(string(b))
}

// setUp builds one instance, collecting garbage first so a previous
// instance's heap is not charged to this set-up.
func setUp(wl workload, seed uint64, tr *tracer) (instance, float64, error) {
	runtime.GC()
	t0 := time.Now()
	inst, err := wl.setup(seed, tr)
	return inst, time.Since(t0).Seconds(), err
}

// untracedRun measures the end-to-end metrics: set up several times
// (setup_s is the median), measure the last set-up's window, then check.
func untracedRun(wl workload, seed uint64, seconds float64) (*report, error) {
	var inst instance
	var setups []float64
	for k := 0; k < wl.setups; k++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		var s float64
		var err error
		if inst, s, err = setUp(wl, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
	}
	res, err := inst.run(seconds, 0)
	if err != nil {
		return nil, err
	}
	heap := heapLiveMB()
	if err := checkRPCs(res); err != nil {
		return nil, err
	}
	if err := inst.verify(); err != nil {
		return nil, err
	}
	rep := newReport(res)
	endToEnd(rep, res, median(setups), heap, inst.spaceAmp())
	return rep, nil
}

func opsPerS(r *result) float64 { return statsOf(r.clients).opsPerS }

// samples counts latency samples and slices over the clients.
func samples(r *result) (n, slices int) {
	for _, l := range r.clients {
		n += len(l.all.xs)
		slices = len(l.busyNs)
	}
	return n, slices
}

func endToEnd(rep *report, r *result, setupS, heapMB, amp float64) {
	st := statsOf(r.clients)
	rep.set("ops_per_s", "1/s", st.opsPerS)
	rep.set("lat_p50_us", "us", st.p50)
	rep.set("lat_p90_us", "us", st.p90)
	rep.notes = append(rep.notes, r.notes...)
	n, slices := samples(r)
	rep.notes = append(rep.notes,
		fmt.Sprintf("latency samples: %d in %d slices; ops_per_s and percentiles are medians over slices", n, slices),
		fmt.Sprintf("lat_p99_us %.3f (reported unbounded, as a per-layer metric of the traced run)", st.p99))
	for c, name := range [numClasses]string{"read_p50_us", "write_p50_us", "meta_p50_us"} {
		v := st.class[c]
		if v == 0 {
			v = st.p50
			rep.notes = append(rep.notes, name+": no ops of this kind in the mix; reports lat_p50_us")
		}
		rep.set(name, "us", v)
	}
	for ph, n := range [numPhases]string{"sim_create_per_s", "sim_read_per_s", "sim_overwrite_per_s", "sim_delete_per_s"} {
		rep.set(n, "1/s", median(r.sim[ph]))
	}
	ops, failed := r.ops()
	rep.set("ok_frac", "ratio", 1-ratio(float64(failed), float64(ops)))
	rep.set("setup_s", "s", setupS)
	rep.set("heap_live_mb", "MB", heapMB)
	rep.set("space_amp", "x", amp)
}

// checkRPCs reconciles the client's RPC count with the server's
// srv.requests delta, message type by message type. The server counts
// requests as it admits them; Tclunk is answered on the connection
// reader without being counted, so clunks are left out of the match.
func checkRPCs(r *result) error {
	for n, typ := range rpcTypes {
		got := r.w.counterSum("srv.requests{op=" + typ.String() + ",")
		if got != r.rpcs[n] {
			return fmt.Errorf("reconcile: client sent %d %v, srv.requests counted %d", r.rpcs[n], typ, got)
		}
	}
	return nil
}

// rpcTypes names the wire message each counted srv span wraps.
var rpcTypes = map[uint8]srv.MsgType{
	spanSrvWalk: srv.Twalk, spanSrvOpen: srv.Topen, spanSrvRead: srv.Tread,
	spanSrvWrite: srv.Twrite, spanSrvStat: srv.Tstat, spanSrvReaddir: srv.Treaddir,
	spanSrvCreate: srv.Tcreate, spanSrvUnlink: srv.Tunlink,
}

// tracedRun measures the per-layer metrics: an untraced pass, then a
// traced pass over the same work on a fresh set-up. Counters come from
// the untraced pass, span timings from the traced one; the two must
// agree on the work the disk did. The untraced pass gets half the
// window, so the pair measures about as long as an untraced run.
func tracedRun(wl workload, seed uint64, seconds float64) (*report, error) {
	inst, _, err := setUp(wl, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	u, err := inst.run(seconds/2, 0)
	if err != nil {
		return nil, err
	}
	if err := checkRPCs(u); err != nil {
		return nil, err
	}
	if err := inst.verify(); err != nil {
		return nil, err
	}
	inst = nil

	tr := newTracer()
	inst, _, err = setUp(wl, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	limit := int64(0)
	if wl.reconcileSim {
		limit = u.units
	}
	tr.on.Store(true)
	t, err := inst.run(seconds, limit)
	tr.on.Store(false)
	if err != nil {
		return nil, err
	}
	if err := checkRPCs(t); err != nil {
		return nil, err
	}
	if err := inst.verify(); err != nil {
		return nil, err
	}
	rep := newReport(u)
	if wl.reconcileSim {
		if err := reconcileSim(u, t); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("reconciled: disk requests %d untraced, %d traced; simulated %.6fs untraced, %.6fs traced",
			u.w.disk.Requests, t.w.disk.Requests, u.w.simS, t.w.simS))
	}
	perLayer(rep, u, t, tr.spans)

	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.tsv.gz", wl.name, seed))
	if err := tr.dump(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	return rep, nil
}

func reconcileSim(u, t *result) error {
	off := func(a, b float64) bool { return math.Abs(a-b) > simTolerance*math.Max(a, b) }
	if u.units != t.units {
		return fmt.Errorf("reconcile: traced pass ran %d units, untraced %d", t.units, u.units)
	}
	if off(float64(u.w.disk.Requests), float64(t.w.disk.Requests)) {
		return fmt.Errorf("reconcile: disk requests %d untraced vs %d traced", u.w.disk.Requests, t.w.disk.Requests)
	}
	if off(u.w.simS, t.w.simS) {
		return fmt.Errorf("reconcile: simulated time %.6fs untraced vs %.6fs traced", u.w.simS, t.w.simS)
	}
	return nil
}

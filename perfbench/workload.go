package main

import (
	"fmt"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/sim"
	"cffs/internal/vfs"
)

const blockBytes = blockio.BlockSize

// instance is one set-up of a workload: a populated, warmed stack and
// the client state that goes with it.
type instance interface {
	// run measures one window: whole units of work until seconds have
	// passed, or exactly limit units when limit > 0 (a unit is a round
	// of phases on smallfile, one op elsewhere; service ignores limit).
	run(seconds float64, limit int64) (*result, error)
	// verify runs the output checks that follow the window; the
	// instance is unusable afterwards.
	verify() error
	// spaceAmp is blocks allocated by populating, in bytes, over the
	// user bytes written; valid after verify.
	spaceAmp() float64
	close()
}

type workload struct {
	name string
	// setups is how many times one run sets up, for the setup_s median.
	setups int
	setup  func(seed uint64, tr *tracer) (instance, error)
	// reconcileSim: the same work traced and untraced must cost the
	// simulated disk the same (single client goroutine).
	reconcileSim bool
}

// workloads are described, with the reason for each, in README.md.
var workloads = []workload{
	{"smallfile", 5, setupSmallfile, true},
	{"service", 5, setupService, false},
	{"coldns", 3, setupColdns, true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// result is one measured window.
type result struct {
	units   int64
	clients []*lats
	w       window
	// sim holds files per simulated second for each phase kind: one
	// value per round on smallfile, one per window elsewhere.
	sim [numPhases][]float64
	// rpcs counts client RPCs by span name.
	rpcs [numSpanNames]int64
	// notes explain figures that stand in for an op kind the mix lacks.
	notes []string
}

// ops and failed total the clients' ops.
func (r *result) ops() (ops, failed int64) {
	for _, l := range r.clients {
		ops += l.ops
		failed += l.failed
	}
	return ops, failed
}

// client is the in-process client of smallfile and coldns: one
// goroutine calling the file system, with an op span per operation in a
// traced pass.
type client struct {
	tr  *tracer
	cur int32
}

func (d *client) beginOp() time.Time {
	if d.tr != nil && d.tr.on.Load() {
		d.cur = d.tr.begin(spanOp, 0, d.tr.newOp())
	}
	return time.Now()
}

func (d *client) endOp(t0 time.Time) int64 {
	ns := int64(time.Since(t0))
	if d.cur != 0 {
		d.tr.end(d.cur)
		d.cur = 0
	}
	return ns
}

func (d *client) parent(vfs.Ino) int32 { return d.cur }

// newRNG derives an independent generator for one use of the seed.
func newRNG(seed, stream uint64) *sim.RNG {
	return sim.NewRNG(seed*0x100000001b3 + stream*0x9e3779b97f4a7c15 + 1)
}

// readBack resolves path on a remounted image and checks size and
// content against the seeded pattern.
func readBack(fs *core.FS, path string, buf []byte, chk *checker, id, ver uint64) error {
	ino, err := fs.WalkPath(path)
	if err != nil {
		return err
	}
	st, err := fs.Stat(ino)
	if err != nil {
		return err
	}
	if st.Size != int64(len(buf)) {
		return fmt.Errorf("%s: size %d, want %d", path, st.Size, len(buf))
	}
	n, err := fs.ReadAt(ino, buf, 0)
	if err != nil {
		return err
	}
	if n != len(buf) || !chk.ok(buf, id, ver) {
		return fmt.Errorf("%s: content does not match what was written", path)
	}
	return nil
}

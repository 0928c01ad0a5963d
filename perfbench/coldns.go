package main

import (
	"fmt"
	"math/rand"
	"time"

	"cffs/internal/core"
	"cffs/internal/vfs"
)

// coldns is a cold namespace: 100000 2 KB files in 256-file
// directories. Each file takes a 4 KB block, so the files occupy 50x
// the 8 MB cache while the in-memory image stays near 400 MB. Each op
// resolves a full path, stats the file and reads it whole. Keys are
// Zipf-skewed over a seeded permutation of the files, so the hot head
// is scattered across directories: it fits the path and block caches,
// the tail does not, and a group read rarely brings in a neighbour that
// is wanted next.
const (
	cnFiles   = 100000
	cnPerDir  = 256
	cnSize    = 2048
	cnZipfS   = 1.1
	cnWarmOps = 20000
	cnCheck   = 1000
)

type coldnsInst struct {
	s     *stack
	pw    vfs.PathWalker
	cl    client
	chk   checker
	paths []string
	perm  []int
	// keys draws the measured window's keys; the same seed replays the
	// same sequence, which is what lets a traced pass repeat the work.
	keys *rand.Zipf
	buf  []byte
	amp  float64
}

func setupColdns(seed uint64, tr *tracer) (instance, error) {
	s, err := newStack(tr)
	if err != nil {
		return nil, err
	}
	in := &coldnsInst{
		s:   s,
		pw:  s.vfs.(vfs.PathWalker),
		cl:  client{tr: tr},
		chk: checker{seed: seed},
		buf: make([]byte, cnSize),
	}
	if tr != nil {
		tr.fsParent = in.cl.parent
	}
	free0, err := s.fs.FreeBlocks()
	if err != nil {
		return nil, err
	}
	var dir vfs.Ino
	for i := 0; i < cnFiles; i++ {
		if i%cnPerDir == 0 {
			if dir, err = s.vfs.Mkdir(s.vfs.Root(), fmt.Sprintf("d%04d", i/cnPerDir)); err != nil {
				return nil, err
			}
		}
		name := fmt.Sprintf("f%03d", i%cnPerDir)
		in.paths = append(in.paths, fmt.Sprintf("/d%04d/%s", i/cnPerDir, name))
		ino, err := s.vfs.Create(dir, name)
		if err != nil {
			return nil, err
		}
		fillPattern(in.buf, seed, uint64(i), 0)
		if _, err := s.vfs.WriteAt(ino, in.buf, 0); err != nil {
			return nil, err
		}
	}
	if err := s.vfs.Sync(); err != nil {
		return nil, err
	}
	free1, err := s.fs.FreeBlocks()
	if err != nil {
		return nil, err
	}
	in.amp = float64(free0-free1) * blockBytes / float64(cnFiles*cnSize)
	if err := s.vfs.(vfs.Flusher).Flush(); err != nil {
		return nil, err
	}
	in.perm = rand.New(rand.NewSource(int64(seed))).Perm(cnFiles)
	warm := rand.NewZipf(rand.New(rand.NewSource(int64(seed)+1)), cnZipfS, 1, cnFiles-1)
	for k := 0; k < cnWarmOps; k++ {
		if err := in.op(warm, &lats{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	in.keys = rand.NewZipf(rand.New(rand.NewSource(int64(seed)+2)), cnZipfS, 1, cnFiles-1)
	return in, nil
}

func (in *coldnsInst) close()            { in.s.close() }
func (in *coldnsInst) spaceAmp() float64 { return in.amp }

// op resolves, stats and reads one Zipf-drawn file. The resolve+stat
// step is timed as meta, the read as read.
func (in *coldnsInst) op(keys *rand.Zipf, l *lats) error {
	id := in.perm[keys.Uint64()]
	path := in.paths[id]
	t0 := in.cl.beginOp()
	ino, err := in.pw.WalkPath(path)
	var st vfs.Stat
	if err == nil {
		st, err = in.s.vfs.Stat(ino)
	}
	t1 := time.Now()
	n := 0
	if err == nil {
		n, err = in.s.vfs.ReadAt(ino, in.buf, 0)
	}
	t2 := time.Now()
	l.record(-1, in.cl.endOp(t0), err)
	if err != nil {
		return nil
	}
	l.step(classMeta, int64(t1.Sub(t0)))
	l.step(classRead, int64(t2.Sub(t1)))
	c0 := time.Now()
	ok := st.Size == cnSize && n == cnSize && in.chk.ok(in.buf, uint64(id), 0)
	l.checkNs += int64(time.Since(c0))
	if !ok {
		return fmt.Errorf("%s: size %d, read %d, or content does not match what was written", path, st.Size, n)
	}
	return nil
}

func (in *coldnsInst) run(seconds float64, limit int64) (*result, error) {
	l := &lats{}
	res := &result{clients: []*lats{l}}
	m0 := takeMark(in.s)
	start := time.Now()
	sl := newSlicer(l, start)
	for {
		now := time.Now()
		if sl.tick(now) && limit == 0 && now.Sub(start).Seconds() >= seconds {
			break
		}
		if limit > 0 && res.units >= limit {
			sl.finish(now)
			break
		}
		if err := in.op(in.keys, l); err != nil {
			return nil, err
		}
		res.units++
	}
	if err := in.s.vfs.Sync(); err != nil {
		return nil, err
	}
	res.w = between(m0, takeMark(in.s))
	// Every op is a read; the create, overwrite and delete slots carry
	// the same reads per simulated second.
	ops, _ := res.ops()
	rate := ratio(float64(ops), res.w.simS)
	for ph := range res.sim {
		res.sim[ph] = []float64{rate}
	}
	res.notes = append(res.notes, "sim_create_per_s, sim_overwrite_per_s, sim_delete_per_s: the mix is read-only; they report sim_read_per_s")
	return res, nil
}

func (in *coldnsInst) verify() error {
	rng := newRNG(in.chk.seed, 11)
	return in.s.verify(func(m *core.FS) error {
		for k := 0; k < cnCheck; k++ {
			id := rng.Intn(cnFiles)
			if err := readBack(m, in.paths[id], in.buf, &in.chk, uint64(id), 0); err != nil {
				return err
			}
		}
		return nil
	})
}

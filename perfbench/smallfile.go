package main

import (
	"fmt"
	"time"

	"cffs/internal/core"
	"cffs/internal/vfs"
)

// smallfile is the paper's micro-benchmark: 20000 1 KB files in 100
// directories (80 MB of blocks, ten times the 8 MB cache), driven
// through create+write, lookup+read, lookup+overwrite and unlink, with
// a sync and a cache flush after each phase. The window repeats whole
// rounds of the four phases on one mount.
const (
	sfFiles = 20000
	sfSize  = 1024
	sfDirs  = 100
	sfWarm  = 2000 // files in the untimed warm-up round
	sfCheck = 1000 // files read back after the remount
)

// Phases, indexing result.sim.
const (
	phaseCreate = iota
	phaseRead
	phaseOverwrite
	phaseDelete
	numPhases
)

var phaseNames = [numPhases]string{"create", "read", "overwrite", "delete"}

type smallfileInst struct {
	s     *stack
	cl    client
	chk   checker
	dirs  []vfs.Ino
	names []string
	round uint64 // rounds run so far; versions the file contents
	amp   float64
}

func setupSmallfile(seed uint64, tr *tracer) (instance, error) {
	s, err := newStack(tr)
	if err != nil {
		return nil, err
	}
	in := &smallfileInst{s: s, cl: client{tr: tr}, chk: checker{seed: seed}}
	if tr != nil {
		tr.fsParent = in.cl.parent
	}
	for d := 0; d < sfDirs; d++ {
		ino, err := s.vfs.Mkdir(s.vfs.Root(), fmt.Sprintf("d%03d", d))
		if err != nil {
			return nil, err
		}
		in.dirs = append(in.dirs, ino)
	}
	for i := 0; i < sfFiles; i++ {
		in.names = append(in.names, fmt.Sprintf("f%06d", i))
	}
	if err := s.vfs.(vfs.Flusher).Flush(); err != nil {
		return nil, err
	}
	if err := in.runRound(sfWarm, &lats{}, &result{}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *smallfileInst) close() { in.s.close() }
func (in *smallfileInst) spaceAmp() float64 {
	return in.amp
}

// dirOf spreads files directory-major, as the paper's benchmark does.
func (in *smallfileInst) dirOf(i int) vfs.Ino {
	return in.dirs[i/((sfFiles+sfDirs-1)/sfDirs)]
}

func (in *smallfileInst) run(seconds float64, limit int64) (*result, error) {
	l := &lats{}
	res := &result{clients: []*lats{l}}
	m0 := takeMark(in.s)
	start := time.Now()
	for {
		if limit > 0 && res.units >= limit {
			break
		}
		if limit == 0 && res.units > 0 && time.Since(start).Seconds() >= seconds {
			break
		}
		r0 := time.Now()
		if err := in.runRound(sfFiles, l, res); err != nil {
			return nil, err
		}
		l.cut(int64(time.Since(r0)))
		res.units++
	}
	res.w = between(m0, takeMark(in.s))
	return res, nil
}

// runRound runs the four phases over the first n files, one slice of
// the window.
func (in *smallfileInst) runRound(n int, l *lats, res *result) error {
	fs := in.s.vfs
	ver := 2 * in.round
	in.round++
	buf := make([]byte, sfSize)
	for ph := 0; ph < numPhases; ph++ {
		clk := in.s.dev.Disk().Clock()
		sim0 := clk.Now()
		for i := 0; i < n; i++ {
			dir, name := in.dirOf(i), in.names[i]
			var class int
			var err error
			var got int
			switch ph {
			case phaseCreate, phaseOverwrite:
				v := ver
				if ph == phaseOverwrite {
					v++
				}
				fillPattern(buf, in.chk.seed, uint64(i), v)
				class = classWrite
				t0 := in.cl.beginOp()
				ino := vfs.Ino(0)
				if ph == phaseCreate {
					ino, err = fs.Create(dir, name)
				} else {
					ino, err = fs.Lookup(dir, name)
				}
				if err == nil {
					got, err = fs.WriteAt(ino, buf, 0)
				}
				l.record(class, in.cl.endOp(t0), err)
				if err == nil && got != sfSize {
					return fmt.Errorf("%s %s: wrote %d of %d bytes", phaseNames[ph], name, got, sfSize)
				}
			case phaseRead:
				class = classRead
				t0 := in.cl.beginOp()
				ino, err := fs.Lookup(dir, name)
				if err == nil {
					got, err = fs.ReadAt(ino, buf, 0)
				}
				l.record(class, in.cl.endOp(t0), err)
				if err == nil {
					c0 := time.Now()
					ok := got == sfSize && in.chk.ok(buf, uint64(i), ver)
					l.checkNs += int64(time.Since(c0))
					if !ok {
						return fmt.Errorf("read %s: content does not match what was written", name)
					}
				}
			case phaseDelete:
				class = classMeta
				t0 := in.cl.beginOp()
				err = fs.Unlink(dir, name)
				l.record(class, in.cl.endOp(t0), err)
			}
		}
		if err := fs.Sync(); err != nil {
			return fmt.Errorf("%s sync: %w", phaseNames[ph], err)
		}
		simS := float64(clk.Now()-sim0) / 1e9
		res.sim[ph] = append(res.sim[ph], ratio(float64(n), simS))
		if err := fs.(vfs.Flusher).Flush(); err != nil {
			return fmt.Errorf("%s flush: %w", phaseNames[ph], err)
		}
	}
	return nil
}

// verify repopulates the file set (its blocks give space_amp), checks
// the image and reads a seeded sample back after a remount.
func (in *smallfileInst) verify() error {
	fs := in.s.fs
	ver := 2 * in.round
	free0, err := fs.FreeBlocks()
	if err != nil {
		return err
	}
	buf := make([]byte, sfSize)
	for i := 0; i < sfFiles; i++ {
		ino, err := fs.Create(in.dirOf(i), in.names[i])
		if err != nil {
			return fmt.Errorf("repopulate: %w", err)
		}
		fillPattern(buf, in.chk.seed, uint64(i), ver)
		if _, err := fs.WriteAt(ino, buf, 0); err != nil {
			return fmt.Errorf("repopulate: %w", err)
		}
	}
	if err := fs.Sync(); err != nil {
		return err
	}
	free1, err := fs.FreeBlocks()
	if err != nil {
		return err
	}
	in.amp = float64(free0-free1) * blockBytes / float64(sfFiles*sfSize)
	rng := newRNG(in.chk.seed, 7)
	return in.s.verify(func(m *core.FS) error {
		for k := 0; k < sfCheck; k++ {
			i := rng.Intn(sfFiles)
			path := fmt.Sprintf("/d%03d/%s", i/((sfFiles+sfDirs-1)/sfDirs), in.names[i])
			if err := readBack(m, path, buf, &in.chk, uint64(i), ver); err != nil {
				return err
			}
		}
		return nil
	})
}

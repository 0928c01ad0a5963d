package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cffs/internal/core"
	"cffs/internal/sim"
	"cffs/internal/srv"
	"cffs/internal/vfs"
)

// service runs two loopback sessions, one tenant each, with fair-share
// dispatch. Each tenant owns a 16x64 tree of 1 KB files that fits the
// cache, so the disk is nearly idle and the wire codec, dispatcher,
// fid tables, fs.mu and the cache-hit path do the work. Every session
// is a closed loop over this mix:
//
//	60% walk+open+read+clunk      (read)
//	20% walk+stat+clunk           (meta)
//	 5% readdir page              (meta)
//	15% create+write+clunk+unlink (write)
const (
	svcSessions = 2 // nproc on the reference host: one closed-loop client per CPU
	svcDirs     = 16
	svcFiles    = 32
	svcSize     = 1024
	svcWarmOps  = 2000
	svcSimOps   = 10000 // per session, for the simulated-disk figures
	svcCheck    = 200
)

type serviceInst struct {
	s      *stack
	server *srv.Server
	ln     *srv.Loopback
	served chan error
	sess   []*session
	seed   uint64
	dnames []string
	fnames []string
	amp    float64

	// owner maps every ino of a tenant tree to its session, so a traced
	// fs call on a server worker is charged to the RPC that caused it.
	mu    sync.RWMutex
	owner map[vfs.Ino]int
}

// session is one closed-loop client: a connection, an attached tenant
// root and its directories open for reading.
type session struct {
	idx  int
	tr   *tracer
	c    *srv.Client
	root *srv.Fid
	dirs []*srv.Fid
	rng  *sim.RNG
	chk  checker
	buf  []byte
	tmp  int
	op   int32        // open op span (session goroutine only)
	rpc  atomic.Int32 // open RPC span, read by server workers
	lat  *lats
	rpcs [numSpanNames]int64
}

func tenantName(i int) string { return "t" + strconv.Itoa(i) }

// fileID numbers the files of all tenant trees for the content pattern.
func fileID(tenant, d, f int) uint64 {
	return uint64((tenant*svcDirs+d)*svcFiles + f)
}

func setupService(seed uint64, tr *tracer) (instance, error) {
	s, err := newStack(tr)
	if err != nil {
		return nil, err
	}
	in := &serviceInst{s: s, seed: seed, owner: map[vfs.Ino]int{}}
	for d := 0; d < svcDirs; d++ {
		in.dnames = append(in.dnames, fmt.Sprintf("d%02d", d))
	}
	for f := 0; f < svcFiles; f++ {
		in.fnames = append(in.fnames, fmt.Sprintf("f%02d", f))
	}
	in.server = srv.New(srv.Config{FS: s.vfs, Registry: s.reg, QoS: srv.QoS{FairShare: true}})
	free0, err := s.fs.FreeBlocks()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, svcSize)
	for t := 0; t < svcSessions; t++ {
		if err := in.server.AddTenant(tenantName(t)); err != nil {
			return nil, err
		}
		root, err := s.vfs.Lookup(s.vfs.Root(), tenantName(t))
		if err != nil {
			return nil, err
		}
		in.owner[root] = t
		for d := 0; d < svcDirs; d++ {
			dir, err := s.vfs.Mkdir(root, in.dnames[d])
			if err != nil {
				return nil, err
			}
			in.owner[dir] = t
			for f := 0; f < svcFiles; f++ {
				ino, err := s.vfs.Create(dir, in.fnames[f])
				if err != nil {
					return nil, err
				}
				in.owner[ino] = t
				fillPattern(buf, seed, fileID(t, d, f), 0)
				if _, err := s.vfs.WriteAt(ino, buf, 0); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := s.vfs.Sync(); err != nil {
		return nil, err
	}
	free1, err := s.fs.FreeBlocks()
	if err != nil {
		return nil, err
	}
	in.amp = float64(free0-free1) * blockBytes / float64(svcSessions*svcDirs*svcFiles*svcSize)
	if tr != nil {
		tr.fsParent = in.parentOf
		tr.learn = in.learn
	}

	in.ln = srv.NewLoopback()
	in.served = make(chan error, 1)
	go func() { in.served <- in.server.Serve(in.ln) }()
	for t := 0; t < svcSessions; t++ {
		ss, err := in.connect(t, tr)
		if err != nil {
			in.close()
			return nil, err
		}
		in.sess = append(in.sess, ss)
	}
	if _, err := in.drive(0, svcWarmOps, 0, nil); err != nil {
		in.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return in, nil
}

func (in *serviceInst) connect(t int, tr *tracer) (*session, error) {
	nc, err := in.ln.Dial()
	if err != nil {
		return nil, err
	}
	c, err := srv.NewClient(nc)
	if err != nil {
		return nil, err
	}
	ss := &session{
		idx: t,
		tr:  tr,
		c:   c,
		rng: newRNG(in.seed, uint64(100+t)),
		chk: checker{seed: in.seed},
		buf: make([]byte, svcSize),
	}
	if ss.root, err = c.Attach(tenantName(t)); err != nil {
		c.Close()
		return nil, err
	}
	for d := 0; d < svcDirs; d++ {
		dir, err := ss.root.Walk(in.dnames[d])
		if err == nil {
			_, err = dir.Open(srv.OModeRead)
		}
		if err != nil {
			c.Close()
			return nil, err
		}
		ss.dirs = append(ss.dirs, dir)
	}
	return ss, nil
}

func (in *serviceInst) parentOf(ino vfs.Ino) int32 {
	in.mu.RLock()
	t, ok := in.owner[ino]
	in.mu.RUnlock()
	if !ok {
		return 0
	}
	return in.sess[t].rpc.Load()
}

func (in *serviceInst) learn(child, dir vfs.Ino) {
	in.mu.Lock()
	if t, ok := in.owner[dir]; ok {
		in.owner[child] = t
	}
	in.mu.Unlock()
}

func (in *serviceInst) spaceAmp() float64 { return in.amp }

// close stops the sessions and the server and waits for Serve to end.
func (in *serviceInst) close() {
	in.shutdown()
	in.s.close()
}

func (in *serviceInst) shutdown() {
	if in.ln == nil {
		return
	}
	for _, ss := range in.sess {
		ss.c.Close()
	}
	in.ln.Close()
	in.server.Close()
	<-in.served
	in.ln = nil
}

// drive runs every session concurrently, each for ops operations, or
// for whole slices until seconds have passed when ops is 0. With
// atOps > 0, every session stops after its first atOps ops, pause runs
// with the sessions quiet and their RPC counts so far, and they resume.
func (in *serviceInst) drive(seconds float64, ops, atOps int, pause func(rpcs [numSpanNames]int64)) (*result, error) {
	res := &result{}
	start := time.Now()
	errs := make([]error, len(in.sess))
	counts := make([][numSpanNames]int64, len(in.sess))
	var wg, arrived sync.WaitGroup
	resume := make(chan struct{})
	for i, ss := range in.sess {
		ss.lat, ss.rpcs = &lats{}, [numSpanNames]int64{}
		res.clients = append(res.clients, ss.lat)
		wg.Add(1)
		arrived.Add(1)
		go func(i int, ss *session) {
			defer wg.Done()
			here := false
			arrive := func() {
				if !here {
					here = true
					counts[i] = ss.rpcs
					arrived.Done()
				}
			}
			defer arrive() // a session that stops early must not hold the others
			sl := newSlicer(ss.lat, start)
			for k := 0; ops == 0 || k < ops; k++ {
				if k == atOps && atOps > 0 {
					arrive()
					<-resume
				}
				if now := time.Now(); sl.tick(now) && ops == 0 && now.Sub(start).Seconds() >= seconds {
					return
				}
				if errs[i] = in.op(ss); errs[i] != nil {
					return
				}
			}
		}(i, ss)
	}
	arrived.Wait()
	if atOps > 0 {
		var sum [numSpanNames]int64
		for _, c := range counts {
			for n := range c {
				sum[n] += c[n]
			}
		}
		pause(sum)
	}
	close(resume)
	wg.Wait()
	for i, ss := range in.sess {
		if errs[i] != nil {
			return nil, errs[i]
		}
		for n := range ss.rpcs {
			res.rpcs[n] += ss.rpcs[n]
		}
	}
	return res, nil
}

// run measures the window. The disk sees almost nothing until a sync,
// and a sync costs about the same whatever the number of ops before
// it, so files per simulated second are taken over a fixed amount of
// work: the first svcSimOps ops of each session, then a sync.
func (in *serviceInst) run(seconds float64, _ int64) (*result, error) {
	m0 := takeMark(in.s)
	sim0 := m0.simNs
	var sim [numPhases]float64
	var syncErr error
	res, err := in.drive(seconds, 0, svcSimOps, func(rpcs [numSpanNames]int64) {
		syncErr = in.s.vfs.Sync()
		simS := float64(in.s.dev.Disk().Clock().Now()-sim0) / 1e9
		sim[phaseCreate] = ratio(float64(rpcs[spanSrvCreate]), simS)
		sim[phaseRead] = ratio(float64(rpcs[spanSrvRead]), simS)
		sim[phaseDelete] = ratio(float64(rpcs[spanSrvUnlink]), simS)
		// The mix has no overwrites; the slot carries all ops instead.
		sim[phaseOverwrite] = ratio(float64(svcSimOps*len(in.sess)), simS)
	})
	if err != nil {
		return nil, err
	}
	if syncErr != nil {
		return nil, syncErr
	}
	// The paper's rule: a window ends when its dirty data is on disk.
	if err := in.s.vfs.Sync(); err != nil {
		return nil, err
	}
	res.w = between(m0, takeMark(in.s))
	res.units, _ = res.ops()
	for ph := range sim {
		res.sim[ph] = []float64{sim[ph]}
	}
	res.notes = append(res.notes,
		fmt.Sprintf("sim_*_per_s: over the first %d ops of each session and a sync", svcSimOps),
		"sim_overwrite_per_s: the mix has no overwrites; it reports all ops per simulated second")
	return res, nil
}

// rpc spans wrap every srv.Fid call of a session.
func (ss *session) rpcBegin(name uint8) int32 {
	ss.rpcs[name]++
	if ss.tr == nil || !ss.tr.on.Load() {
		return 0
	}
	id := ss.tr.begin(name, ss.op, 0)
	ss.rpc.Store(id)
	return id
}

func (ss *session) rpcEnd(id int32) {
	if id != 0 {
		ss.rpc.Store(0)
		ss.tr.end(id)
	}
}

func (ss *session) walk(f *srv.Fid, names ...string) (*srv.Fid, error) {
	id := ss.rpcBegin(spanSrvWalk)
	nf, err := f.Walk(names...)
	ss.rpcEnd(id)
	return nf, err
}

func (ss *session) open(f *srv.Fid, mode uint8) error {
	id := ss.rpcBegin(spanSrvOpen)
	_, err := f.Open(mode)
	ss.rpcEnd(id)
	return err
}

func (ss *session) readAt(f *srv.Fid, p []byte) (int, error) {
	id := ss.rpcBegin(spanSrvRead)
	n, err := f.ReadAt(p, 0)
	ss.rpcEnd(id)
	return n, err
}

func (ss *session) writeAt(f *srv.Fid, p []byte) (int, error) {
	id := ss.rpcBegin(spanSrvWrite)
	n, err := f.WriteAt(p, 0)
	ss.rpcEnd(id)
	return n, err
}

func (ss *session) stat(f *srv.Fid) (vfs.Stat, error) {
	id := ss.rpcBegin(spanSrvStat)
	st, err := f.Stat()
	ss.rpcEnd(id)
	return st, err
}

func (ss *session) readDirPage(f *srv.Fid, off int64) ([]vfs.DirEntry, error) {
	id := ss.rpcBegin(spanSrvReaddir)
	ents, _, err := f.ReadDirPage(off)
	ss.rpcEnd(id)
	return ents, err
}

func (ss *session) create(f *srv.Fid, name string) (*srv.Fid, error) {
	id := ss.rpcBegin(spanSrvCreate)
	nf, err := f.Create(name)
	ss.rpcEnd(id)
	return nf, err
}

func (ss *session) unlink(f *srv.Fid, name string) error {
	id := ss.rpcBegin(spanSrvUnlink)
	err := f.Unlink(name)
	ss.rpcEnd(id)
	return err
}

func (ss *session) clunk(f *srv.Fid) error {
	id := ss.rpcBegin(spanSrvClunk)
	err := f.Clunk()
	ss.rpcEnd(id)
	return err
}

// op runs one operation of the mix. An RPC error fails the op; wrong
// content or metadata fails the run.
func (in *serviceInst) op(ss *session) error {
	pick := ss.rng.Intn(100)
	d, f := ss.rng.Intn(svcDirs), ss.rng.Intn(svcFiles)
	var tmp string
	if pick >= 85 {
		tmp = "tmp" + strconv.Itoa(ss.tmp)
		ss.tmp++
		fillPattern(ss.buf, in.seed, uint64(1<<32+ss.tmp), 0)
	}
	if ss.tr != nil && ss.tr.on.Load() {
		ss.op = ss.tr.begin(spanOp, 0, ss.tr.newOp())
	}
	t0 := time.Now()
	var (
		class int
		err   error
		n     int
		st    vfs.Stat
		ents  []vfs.DirEntry
	)
	switch {
	case pick < 60:
		class = classRead
		var fid *srv.Fid
		if fid, err = ss.walk(ss.root, in.dnames[d], in.fnames[f]); err == nil {
			if err = ss.open(fid, srv.OModeRead); err == nil {
				n, err = ss.readAt(fid, ss.buf)
			}
			if cerr := ss.clunk(fid); err == nil {
				err = cerr
			}
		}
	case pick < 80:
		class = classMeta
		var fid *srv.Fid
		if fid, err = ss.walk(ss.root, in.dnames[d], in.fnames[f]); err == nil {
			st, err = ss.stat(fid)
			if cerr := ss.clunk(fid); err == nil {
				err = cerr
			}
		}
	case pick < 85:
		class = classMeta
		ents, err = ss.readDirPage(ss.dirs[d], int64(f))
	default:
		class = classWrite
		var fid *srv.Fid
		if fid, err = ss.create(ss.dirs[d], tmp); err == nil {
			n, err = ss.writeAt(fid, ss.buf)
			if cerr := ss.clunk(fid); err == nil {
				err = cerr
			}
			if uerr := ss.unlink(ss.dirs[d], tmp); err == nil {
				err = uerr
			}
		}
	}
	ns := int64(time.Since(t0))
	if ss.op != 0 {
		ss.tr.end(ss.op)
		ss.op = 0
	}
	ss.lat.record(class, ns, err)
	if err != nil {
		return nil
	}
	c0 := time.Now()
	var bad error
	switch {
	case pick < 60:
		if n != svcSize || !ss.chk.ok(ss.buf, fileID(ss.idx, d, f), 0) {
			bad = fmt.Errorf("read /%s/%s/%s: content does not match what was written", tenantName(ss.idx), in.dnames[d], in.fnames[f])
		}
	case pick < 80:
		if st.Size != svcSize || st.Type != vfs.TypeReg {
			bad = fmt.Errorf("stat /%s/%s/%s: size %d type %v", tenantName(ss.idx), in.dnames[d], in.fnames[f], st.Size, st.Type)
		}
	case pick < 85:
		if len(ents) == 0 || ents[0].Name != in.fnames[f] {
			bad = fmt.Errorf("readdir /%s/%s at %d: page does not start at %s", tenantName(ss.idx), in.dnames[d], f, in.fnames[f])
		}
	default:
		if n != svcSize {
			bad = fmt.Errorf("write %s: wrote %d of %d bytes", tmp, n, svcSize)
		}
	}
	ss.lat.checkNs += int64(time.Since(c0))
	return bad
}

// verify reads a seeded sample of each tree back after a remount and
// checks that no file created in the window survived its unlink.
func (in *serviceInst) verify() error {
	in.shutdown()
	rng := newRNG(in.seed, 13)
	buf := make([]byte, svcSize)
	chk := checker{seed: in.seed}
	return in.s.verify(func(m *core.FS) error {
		for t := 0; t < svcSessions; t++ {
			for d := 0; d < svcDirs; d++ {
				dir, err := m.WalkPath("/" + tenantName(t) + "/" + in.dnames[d])
				if err != nil {
					return err
				}
				ents, err := m.ReadDir(dir)
				if err != nil {
					return err
				}
				if len(ents) != svcFiles {
					return fmt.Errorf("/%s/%s holds %d entries, want %d", tenantName(t), in.dnames[d], len(ents), svcFiles)
				}
			}
			for k := 0; k < svcCheck; k++ {
				d, f := rng.Intn(svcDirs), rng.Intn(svcFiles)
				path := "/" + tenantName(t) + "/" + in.dnames[d] + "/" + in.fnames[f]
				if err := readBack(m, path, buf, &chk, fileID(t, d, f), 0); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

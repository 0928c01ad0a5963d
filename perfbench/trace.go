package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/obs"
	"cffs/internal/vfs"
)

// Span names. The prefix before the dot is the layer: "op" is one
// workload operation, "srv" a client RPC, "core" a file-system call,
// "disk" a call into the device target.
var spanNames = []string{
	"op",
	"srv.walk", "srv.open", "srv.read", "srv.write", "srv.stat",
	"srv.readdir", "srv.create", "srv.unlink", "srv.clunk",
	"core.lookup", "core.walkpath", "core.create", "core.readat",
	"core.writeat", "core.unlink", "core.stat", "core.readdir",
	"core.mkdir", "core.other", "core.sync",
	"disk.readv", "disk.writev", "disk.writeordered", "disk.submit",
}

const (
	spanOp = iota
	spanSrvWalk
	spanSrvOpen
	spanSrvRead
	spanSrvWrite
	spanSrvStat
	spanSrvReaddir
	spanSrvCreate
	spanSrvUnlink
	spanSrvClunk
	spanLookup
	spanWalkPath
	spanCreate
	spanReadAt
	spanWriteAt
	spanUnlink
	spanStat
	spanReadDir
	spanMkdir
	spanOther
	spanSync
	spanReadV
	spanWriteV
	spanWriteOrdered
	spanSubmit
	numSpanNames
)

func layerOf(name uint8) string {
	switch {
	case name == spanOp:
		return "op"
	case name <= spanSrvClunk:
		return "srv"
	case name <= spanSync:
		return "core"
	}
	return "disk"
}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch; parent is a span id (index+1), 0 for a root.
type span struct {
	start, end int64
	op         uint64
	parent     int32
	name       uint8
}

// tracer keeps spans in memory. Recording is off outside the measured
// window so set-up and checks leave no spans.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ops   atomic.Uint64

	mu    sync.Mutex
	spans []span
	// openFS holds the ids of file-system spans still open, newest
	// last; a device call is charged to the newest one.
	openFS []int32

	// fsParent names the span an fs call on ino belongs to; the
	// workload installs it (an in-process client returns its current
	// op, the service maps ino to the session whose RPC is running).
	fsParent func(ino vfs.Ino) int32
	// learn records that child was reached from dir, so later calls on
	// child resolve to the same session.
	learn func(child, dir vfs.Ino)
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), fsParent: func(vfs.Ino) int32 { return 0 }}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newOp allocates a workload op id.
func (t *tracer) newOp() uint64 { return t.ops.Add(1) }

// begin opens a span under parent (0 for none). A child with op 0
// inherits its parent's op id.
func (t *tracer) begin(name uint8, parent int32, op uint64) int32 {
	ts := t.now()
	t.mu.Lock()
	if op == 0 && parent > 0 {
		op = t.spans[parent-1].op
	}
	t.spans = append(t.spans, span{start: ts, op: op, parent: parent, name: name})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	ts := t.now()
	t.mu.Lock()
	t.spans[id-1].end = ts
	t.mu.Unlock()
}

func (t *tracer) beginFS(name uint8, ino vfs.Ino) int32 {
	parent := t.fsParent(ino)
	id := t.begin(name, parent, 0)
	t.mu.Lock()
	t.openFS = append(t.openFS, id)
	t.mu.Unlock()
	return id
}

func (t *tracer) endFS(id int32) {
	ts := t.now()
	t.mu.Lock()
	t.spans[id-1].end = ts
	for i := len(t.openFS) - 1; i >= 0; i-- {
		if t.openFS[i] == id {
			t.openFS = append(t.openFS[:i], t.openFS[i+1:]...)
			break
		}
	}
	t.mu.Unlock()
}

// beginDev opens a device span under the newest open fs span. Device
// calls run on the goroutine of the fs call that made them, or on the
// write-behind daemon's; with one client goroutine the newest open fs
// span is exact, with several it is a best guess.
func (t *tracer) beginDev(name uint8) int32 {
	ts := t.now()
	t.mu.Lock()
	var parent int32
	var op uint64
	if n := len(t.openFS); n > 0 {
		parent = t.openFS[n-1]
		op = t.spans[parent-1].op
	}
	t.spans = append(t.spans, span{start: ts, op: op, parent: parent, name: name})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return id
}

// selfTimes returns each span's duration minus the part of it covered
// by its children, indexed like spans.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent > 0 {
			kids[s.parent-1] = append(kids[s.parent-1], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		dur := s.end - s.start
		ks := kids[i]
		if len(ks) == 0 {
			self[i] = dur
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered, cur := int64(0), s.start
		for _, k := range ks {
			lo, hi := spans[k].start, spans[k].end
			if lo < cur {
				lo = cur
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[i] = dur - covered
	}
	return self
}

// dump writes the spans as gzipped tab-separated lines: id, parent, op,
// name, start_ns, end_ns.
func (t *tracer) dump(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(bw, "%d\t%d\t%d\t%s\t%d\t%d\n", i+1, s.parent, s.op, spanNames[s.name], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedFS records a core span around every file-system call.
type tracedFS struct {
	fs *core.FS
	tr *tracer
}

var (
	_ vfs.FileSystem = (*tracedFS)(nil)
	_ vfs.PathWalker = (*tracedFS)(nil)
	_ vfs.Flusher    = (*tracedFS)(nil)
)

func (t *tracer) wrapFS(fs *core.FS) *tracedFS {
	return &tracedFS{fs: fs, tr: t}
}

func (f *tracedFS) span(name uint8, ino vfs.Ino) int32 {
	if !f.tr.on.Load() {
		return 0
	}
	return f.tr.beginFS(name, ino)
}

func (f *tracedFS) done(id int32) {
	if id != 0 {
		f.tr.endFS(id)
	}
}

func (f *tracedFS) learned(child, dir vfs.Ino, err error) {
	if err == nil && f.tr.learn != nil {
		f.tr.learn(child, dir)
	}
}

func (f *tracedFS) Root() vfs.Ino { return f.fs.Root() }

func (f *tracedFS) Lookup(dir vfs.Ino, name string) (vfs.Ino, error) {
	id := f.span(spanLookup, dir)
	ino, err := f.fs.Lookup(dir, name)
	f.done(id)
	f.learned(ino, dir, err)
	return ino, err
}

func (f *tracedFS) Create(dir vfs.Ino, name string) (vfs.Ino, error) {
	id := f.span(spanCreate, dir)
	ino, err := f.fs.Create(dir, name)
	f.done(id)
	f.learned(ino, dir, err)
	return ino, err
}

func (f *tracedFS) Mkdir(dir vfs.Ino, name string) (vfs.Ino, error) {
	id := f.span(spanMkdir, dir)
	ino, err := f.fs.Mkdir(dir, name)
	f.done(id)
	f.learned(ino, dir, err)
	return ino, err
}

func (f *tracedFS) Link(dir vfs.Ino, name string, target vfs.Ino) error {
	id := f.span(spanOther, dir)
	err := f.fs.Link(dir, name, target)
	f.done(id)
	return err
}

func (f *tracedFS) Unlink(dir vfs.Ino, name string) error {
	id := f.span(spanUnlink, dir)
	err := f.fs.Unlink(dir, name)
	f.done(id)
	return err
}

func (f *tracedFS) Rmdir(dir vfs.Ino, name string) error {
	id := f.span(spanOther, dir)
	err := f.fs.Rmdir(dir, name)
	f.done(id)
	return err
}

func (f *tracedFS) Rename(sdir vfs.Ino, sname string, ddir vfs.Ino, dname string) error {
	id := f.span(spanOther, sdir)
	err := f.fs.Rename(sdir, sname, ddir, dname)
	f.done(id)
	return err
}

func (f *tracedFS) ReadDir(dir vfs.Ino) ([]vfs.DirEntry, error) {
	id := f.span(spanReadDir, dir)
	ents, err := f.fs.ReadDir(dir)
	f.done(id)
	return ents, err
}

func (f *tracedFS) ReadAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	id := f.span(spanReadAt, ino)
	n, err := f.fs.ReadAt(ino, p, off)
	f.done(id)
	return n, err
}

func (f *tracedFS) WriteAt(ino vfs.Ino, p []byte, off int64) (int, error) {
	id := f.span(spanWriteAt, ino)
	n, err := f.fs.WriteAt(ino, p, off)
	f.done(id)
	return n, err
}

func (f *tracedFS) Truncate(ino vfs.Ino, size int64) error {
	id := f.span(spanOther, ino)
	err := f.fs.Truncate(ino, size)
	f.done(id)
	return err
}

func (f *tracedFS) Stat(ino vfs.Ino) (vfs.Stat, error) {
	id := f.span(spanStat, ino)
	st, err := f.fs.Stat(ino)
	f.done(id)
	return st, err
}

func (f *tracedFS) Sync() error {
	id := f.span(spanSync, 0)
	err := f.fs.Sync()
	f.done(id)
	return err
}

func (f *tracedFS) Flush() error {
	id := f.span(spanSync, 0)
	err := f.fs.Flush()
	f.done(id)
	return err
}

func (f *tracedFS) Close() error { return f.fs.Close() }

func (f *tracedFS) WalkPath(path string) (vfs.Ino, error) {
	id := f.span(spanWalkPath, 0)
	ino, err := f.fs.WalkPath(path)
	f.done(id)
	return ino, err
}

// tracedTarget records a disk span around every call into the device
// target. It forwards Parallelism and SetMetrics so the file system
// sizes its group-read fan-out and write-behind batches exactly as it
// would over the bare target.
type tracedTarget struct {
	blockio.Target
	tr *tracer
}

// tracedBatchTarget adds SubmitBlocks; it is used only when the inner
// target is a BatchSubmitter, because blockio.Device takes a different
// submission path for targets that are.
type tracedBatchTarget struct {
	*tracedTarget
	bs blockio.BatchSubmitter
}

func (t *tracer) wrapTarget(inner blockio.Target) blockio.Target {
	tt := &tracedTarget{Target: inner, tr: t}
	if bs, ok := inner.(blockio.BatchSubmitter); ok {
		return tracedBatchTarget{tracedTarget: tt, bs: bs}
	}
	return tt
}

func (t *tracedTarget) span(name uint8) int32 {
	if !t.tr.on.Load() {
		return 0
	}
	return t.tr.beginDev(name)
}

func (t *tracedTarget) done(id int32) {
	if id != 0 {
		t.tr.end(id)
	}
}

func (t *tracedTarget) ReadV(lba int64, bufs [][]byte) error {
	id := t.span(spanReadV)
	err := t.Target.ReadV(lba, bufs)
	t.done(id)
	return err
}

func (t *tracedTarget) WriteV(lba int64, bufs [][]byte) error {
	id := t.span(spanWriteV)
	err := t.Target.WriteV(lba, bufs)
	t.done(id)
	return err
}

func (t *tracedTarget) WriteOrdered(lba int64, buf []byte) error {
	id := t.span(spanWriteOrdered)
	err := t.Target.WriteOrdered(lba, buf)
	t.done(id)
	return err
}

// Parallelism reports the inner target's request parallelism; a target
// without the method services one request at a time.
func (t *tracedTarget) Parallelism() int {
	if p, ok := t.Target.(interface{ Parallelism() int }); ok {
		return p.Parallelism()
	}
	return 1
}

// SetMetrics forwards to the inner target when it has instruments.
func (t *tracedTarget) SetMetrics(r *obs.Registry) {
	if m, ok := t.Target.(interface{ SetMetrics(*obs.Registry) }); ok {
		m.SetMetrics(r)
	}
}

func (t tracedBatchTarget) SubmitBlocks(reqs []blockio.Req) (int, error) {
	id := t.span(spanSubmit)
	n, err := t.bs.SubmitBlocks(reqs)
	t.done(id)
	return n, err
}

package main

import (
	"fmt"
	"strings"

	"cffs/internal/blockio"
	"cffs/internal/core"
	"cffs/internal/disk"
	"cffs/internal/obs"
	"cffs/internal/sim"
	"cffs/internal/store"
	"cffs/internal/vfs"
	"cffs/internal/writeback"
)

// stack is the system under test in cffsd's production configuration:
// C-FFS (embedded inodes + explicit grouping) in delayed mode with the
// write-behind daemon on and a metrics registry attached, over the
// default disk backend (Seagate ST31200, C-LOOK), in memory.
type stack struct {
	bk  *store.Backend
	dev *blockio.Device
	fs  *core.FS
	reg *obs.Registry
	// vfs is what workloads call: fs itself, or the tracing decorator
	// over it in a traced pass.
	vfs vfs.FileSystem
}

func productionOptions(reg *obs.Registry) core.Options {
	return core.Options{
		EmbedInodes: true,
		Grouping:    true,
		Mode:        core.ModeDelayed,
		Metrics:     reg,
		Writeback:   writeback.Config{Enabled: true},
	}
}

// newStack formats a fresh image. With tr set, the device target and
// the file system are wrapped in the tracing decorators.
func newStack(tr *tracer) (*stack, error) {
	bk, err := store.Open(store.Config{})
	if err != nil {
		return nil, err
	}
	dev := bk.Device()
	if tr != nil {
		dev = blockio.NewDevice(tr.wrapTarget(bk.Target), dev.Scheduler())
	}
	reg := obs.NewRegistry()
	fs, err := core.Mkfs(dev, productionOptions(reg))
	if err != nil {
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	s := &stack{bk: bk, dev: dev, fs: fs, reg: reg, vfs: fs}
	if tr != nil {
		s.vfs = tr.wrapFS(fs)
	}
	return s, nil
}

// verify closes the mount (sync, stop the daemon, clear the unclean
// marker), runs the checker over the device, and remounts the image
// bytes on a fresh device for readBack. Any problem is an error.
func (s *stack) verify(readBack func(fs *core.FS) error) error {
	if err := s.fs.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	rep, err := core.Check(s.dev, false)
	if err != nil {
		return fmt.Errorf("fsck: %w", err)
	}
	if !rep.Clean() {
		return fmt.Errorf("fsck not clean: %s", strings.Join(rep.Problems, "; "))
	}
	d, ok := s.bk.Target.(*disk.Disk)
	if !ok {
		return fmt.Errorf("remount: backend target is %T, want *disk.Disk", s.bk.Target)
	}
	d2, err := disk.New(d.Spec(), sim.NewClock(), s.bk.Bytes)
	if err != nil {
		return err
	}
	fs, err := core.Mount(blockio.NewDevice(d2, s.dev.Scheduler()), productionOptions(nil))
	if err != nil {
		return fmt.Errorf("remount: %w", err)
	}
	if err := readBack(fs); err != nil {
		fs.Close()
		return fmt.Errorf("remount read-back: %w", err)
	}
	return fs.Close()
}

// close releases a stack that is not verified (a discarded set-up).
func (s *stack) close() {
	s.fs.Close()
	s.bk.Bytes.Close()
}

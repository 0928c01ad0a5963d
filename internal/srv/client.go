package srv

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cffs/internal/vfs"
)

// Client is the Go-side of the wire protocol: it owns one connection,
// multiplexes concurrent RPCs over tags, and hands out Fid handles.
// All methods are safe for concurrent use; the intended shape is many
// session goroutines sharing nothing and each owning a Client, but a
// shared Client pipelines correctly too.
type Client struct {
	nc    net.Conn
	msize uint32

	// rmsize is the frame limit the read loop enforces: MaxMsize while
	// the version exchange is still in flight, then the negotiated
	// msize — a conforming client drops a server that overruns what it
	// advertised.
	rmsize atomic.Uint32

	wmu  sync.Mutex // frame writes
	wbuf []byte     // encode buffer, guarded by wmu

	mu      sync.Mutex
	pending map[uint16]chan *Fcall
	nextTag uint16
	nextFid uint32
	err     error // terminal receive error, set once
	done    chan struct{}
}

// NewClient negotiates the protocol over nc and returns a ready client.
func NewClient(nc net.Conn) (*Client, error) {
	c := &Client{
		nc:      nc,
		msize:   MaxMsize,
		pending: make(map[uint16]chan *Fcall),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	r, err := c.rpc(&Fcall{Type: Tversion, Msize: DefaultMsize, Version: Version})
	if err != nil {
		nc.Close()
		return nil, err
	}
	if r.Type != Rversion || r.Version != Version {
		nc.Close()
		return nil, fmt.Errorf("version %q/%v not accepted: %w", r.Version, r.Type, ErrProto)
	}
	c.msize = r.Msize
	c.rmsize.Store(r.Msize)
	return c, nil
}

// Close drops the connection; the server releases every fid.
func (c *Client) Close() error { return c.nc.Close() }

// Msize is the negotiated frame limit.
func (c *Client) Msize() uint32 { return c.msize }

// MaxIO is the largest read/write payload that fits one frame.
func (c *Client) MaxIO() int { return int(c.msize) - IOHeadroom }

func (c *Client) readLoop() {
	fr := newFrameReader(c.nc)
	for {
		limit := c.rmsize.Load()
		if limit == 0 {
			limit = MaxMsize
		}
		f, err := fr.next(limit)
		if err != nil {
			c.mu.Lock()
			if c.err == nil {
				if err == io.EOF {
					err = io.ErrUnexpectedEOF
				}
				c.err = fmt.Errorf("srv client: connection lost: %w", err)
			}
			c.mu.Unlock()
			close(c.done)
			return
		}
		c.mu.Lock()
		ch := c.pending[f.Tag]
		delete(c.pending, f.Tag)
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

// replyChans recycles rpc reply channels. A channel goes back only after
// its one reply was received, so every pooled channel is empty and no
// reader still holds it.
var replyChans = sync.Pool{New: func() any { return make(chan *Fcall, 1) }}

// rpc sends one T-message and waits for its response frame.
func (c *Client) rpc(f *Fcall) (*Fcall, error) {
	ch := replyChans.Get().(chan *Fcall)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	for {
		tag := c.nextTag
		c.nextTag++
		if tag == NoTag {
			continue
		}
		if _, busy := c.pending[tag]; busy {
			continue
		}
		f.Tag = tag
		c.pending[tag] = ch
		break
	}
	c.mu.Unlock()

	c.wmu.Lock()
	var err error
	c.wbuf, err = writeFrame(c.nc, c.wbuf, f, c.msize)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, f.Tag)
		c.mu.Unlock()
		return nil, fmt.Errorf("srv client: send %v: %w", f.Type, err)
	}

	select {
	case r := <-ch:
		replyChans.Put(ch)
		if r.Type == Rerror {
			return nil, r.Err()
		}
		if r.Type != f.Type+1 {
			return nil, fmt.Errorf("srv client: %v answered with %v: %w", f.Type, r.Type, ErrProto)
		}
		return r, nil
	case <-c.done:
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
}

func (c *Client) allocFid() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		id := c.nextFid
		c.nextFid++
		if id != NoFid {
			return id
		}
	}
}

// Fid is a client-side handle bound to one server-side fid.
type Fid struct {
	c  *Client
	id uint32
}

// Attach starts a session as tenant, returning a fid for the tenant
// root directory.
func (c *Client) Attach(tenant string) (*Fid, error) {
	id := c.allocFid()
	if _, err := c.rpc(&Fcall{Type: Tattach, Fid: id, Tenant: tenant}); err != nil {
		return nil, err
	}
	return &Fid{c: c, id: id}, nil
}

// Fsync flushes the file system behind the session. It needs any live
// fid because requests are admitted per tenant.
func (f *Fid) Fsync() error {
	_, err := f.c.rpc(&Fcall{Type: Tfsync, Fid: f.id})
	return err
}

// Walk resolves names relative to f, returning a new fid. An empty
// names list clones f.
func (f *Fid) Walk(names ...string) (*Fid, error) {
	id := f.c.allocFid()
	_, err := f.c.rpc(&Fcall{Type: Twalk, Fid: f.id, NewFid: id, Names: names})
	if err != nil {
		return nil, err
	}
	return &Fid{c: f.c, id: id}, nil
}

// WalkPath is Walk on slash-separated components.
func (f *Fid) WalkPath(path string) (*Fid, error) {
	return f.Walk(vfs.SplitPath(path)...)
}

// Open enables I/O on f with OMode* access bits.
func (f *Fid) Open(mode uint8) (vfs.Stat, error) {
	r, err := f.c.rpc(&Fcall{Type: Topen, Fid: f.id, Mode: mode})
	if err != nil {
		return vfs.Stat{}, err
	}
	return r.Stat.Stat(), nil
}

// Create makes name under directory f and returns its fid, already
// open read-write.
func (f *Fid) Create(name string) (*Fid, error) {
	id := f.c.allocFid()
	_, err := f.c.rpc(&Fcall{Type: Tcreate, Fid: f.id, NewFid: id, Name: name})
	if err != nil {
		return nil, err
	}
	return &Fid{c: f.c, id: id}, nil
}

// Mkdir makes a directory under f.
func (f *Fid) Mkdir(name string) (uint64, error) {
	r, err := f.c.rpc(&Fcall{Type: Tmkdir, Fid: f.id, Name: name})
	if err != nil {
		return 0, err
	}
	return r.Ino, nil
}

// ReadAt reads up to len(p) bytes at off in one RPC (clipped to the
// negotiated frame size); like pread, a short count with nil error
// means end of file.
func (f *Fid) ReadAt(p []byte, off int64) (int, error) {
	count := len(p)
	if m := f.c.MaxIO(); count > m {
		count = m
	}
	r, err := f.c.rpc(&Fcall{Type: Tread, Fid: f.id, Off: off, Count: uint32(count)})
	if err != nil {
		return 0, err
	}
	return copy(p, r.Data), nil
}

// WriteAt writes p at off, splitting into frame-sized RPCs as needed.
func (f *Fid) WriteAt(p []byte, off int64) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if m := f.c.MaxIO(); len(chunk) > m {
			chunk = chunk[:m]
		}
		r, err := f.c.rpc(&Fcall{Type: Twrite, Fid: f.id, Off: off, Data: chunk})
		if err != nil {
			return total, err
		}
		n := int(r.Count)
		total += n
		off += int64(n)
		p = p[n:]
		if n < len(chunk) {
			return total, io.ErrShortWrite
		}
	}
	return total, nil
}

// Stat fetches current metadata.
func (f *Fid) Stat() (vfs.Stat, error) {
	r, err := f.c.rpc(&Fcall{Type: Tstat, Fid: f.id})
	if err != nil {
		return vfs.Stat{}, err
	}
	return r.Stat.Stat(), nil
}

// ReadDirPage fetches one page of directory entries starting at entry
// index off (name order), reporting whether more remain. One RPC.
func (f *Fid) ReadDirPage(off int64) ([]vfs.DirEntry, bool, error) {
	r, err := f.c.rpc(&Fcall{Type: Treaddir, Fid: f.id, Off: off})
	if err != nil {
		return nil, false, err
	}
	ents := make([]vfs.DirEntry, len(r.Ents))
	for i, e := range r.Ents {
		ents[i] = vfs.DirEntry{Name: e.Name, Ino: vfs.Ino(e.Ino), Type: vfs.FileType(e.Type)}
	}
	return ents, r.More, nil
}

// ReadDir fetches the whole directory, paging as needed.
func (f *Fid) ReadDir() ([]vfs.DirEntry, error) {
	var all []vfs.DirEntry
	for {
		ents, more, err := f.ReadDirPage(int64(len(all)))
		if err != nil {
			return nil, err
		}
		all = append(all, ents...)
		if !more || len(ents) == 0 {
			return all, nil
		}
	}
}

// Unlink removes the regular file name in directory f.
func (f *Fid) Unlink(name string) error {
	_, err := f.c.rpc(&Fcall{Type: Tunlink, Fid: f.id, Name: name})
	return err
}

// Rmdir removes the empty directory name in directory f.
func (f *Fid) Rmdir(name string) error {
	_, err := f.c.rpc(&Fcall{Type: Tunlink, Fid: f.id, Name: name, Rmdir: true})
	return err
}

// Rename moves name in directory f to newName in directory newDir
// (which must belong to the same tenant).
func (f *Fid) Rename(name string, newDir *Fid, newName string) error {
	_, err := f.c.rpc(&Fcall{Type: Trename, Fid: f.id, Name: name, DirFid: newDir.id, NewName: newName})
	return err
}

// MaxIO is the largest single-RPC read/write payload on f's client.
func (f *Fid) MaxIO() int { return f.c.MaxIO() }

// Clunk releases the server-side fid.
func (f *Fid) Clunk() error {
	_, err := f.c.rpc(&Fcall{Type: Tclunk, Fid: f.id})
	return err
}

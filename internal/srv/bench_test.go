package srv_test

import (
	"bytes"
	"net"
	"testing"

	"cffs/internal/srv"
)

// rpcFixture is one attached session holding a 1 KB file open for
// reading — the shape of the service workload's hot read path.
type rpcFixture struct {
	f   *srv.Fid
	buf []byte
}

const rpcFileSize = 1 << 10

func newRPCFixture(tb testing.TB, c *srv.Client) *rpcFixture {
	tb.Helper()
	root, err := c.Attach("alpha")
	if err != nil {
		tb.Fatal(err)
	}
	w, err := root.Create("f")
	if err != nil {
		tb.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xC5}, rpcFileSize)
	if _, err := w.WriteAt(payload, 0); err != nil {
		tb.Fatal(err)
	}
	if err := w.Clunk(); err != nil {
		tb.Fatal(err)
	}
	f, err := root.Walk("f")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.Open(srv.OModeRead); err != nil {
		tb.Fatal(err)
	}
	return &rpcFixture{f: f, buf: make([]byte, rpcFileSize)}
}

// roundTrip is one Tstat and one 1 KB Tread.
func (x *rpcFixture) roundTrip(tb testing.TB) {
	if _, err := x.f.Stat(); err != nil {
		tb.Fatal(err)
	}
	if n, err := x.f.ReadAt(x.buf, 0); err != nil || n != rpcFileSize {
		tb.Fatalf("read = %d, %v", n, err)
	}
}

// tcpClient serves s on 127.0.0.1 — the transport cffsd uses — and
// dials one client to it.
func tcpClient(tb testing.TB, s *srv.Server) *srv.Client {
	tb.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go s.Serve(ln)
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	c, err := srv.NewClient(nc)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// BenchmarkRPC times a Tstat plus a 1 KB Tread round trip, client and
// server included, over the in-process loopback and over TCP.
func BenchmarkRPC(b *testing.B) {
	b.Run("loopback", func(b *testing.B) {
		_, lb := testServer(b, srv.Config{}, "alpha")
		benchRPC(b, newRPCFixture(b, dialClient(b, lb)))
	})
	b.Run("tcp", func(b *testing.B) {
		s := newServer(b, srv.Config{}, "alpha")
		benchRPC(b, newRPCFixture(b, tcpClient(b, s)))
	})
}

func benchRPC(b *testing.B, x *rpcFixture) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.roundTrip(b)
	}
}

// rpcAllocsMax pins the heap allocations of one Tstat plus one 1 KB
// Tread round trip, counted process-wide so client and server both
// count. The 14 are: the decoded Fcall of each of the four frames, the
// server's two response Fcalls and its read buffer, the client's copy
// of the Rread data, and per request the dispatcher's queue append and
// the tenant-attribution push. Framing itself — transport reads,
// encode and decode buffers, reply channels — allocates nothing, so a
// change that adds per-frame allocations back fails here.
const rpcAllocsMax = 14

func TestRPCAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector randomly drops sync.Pool entries, so pooled reply channels reallocate")
	}
	_, lb := testServer(t, srv.Config{}, "alpha")
	x := newRPCFixture(t, dialClient(t, lb))
	x.roundTrip(t) // warm the pools and the connection buffers
	got := testing.AllocsPerRun(2000, func() { x.roundTrip(t) })
	t.Logf("%.0f allocations per Tstat+Tread round trip", got)
	if got > rpcAllocsMax {
		t.Fatalf("%.0f allocations per Tstat+Tread round trip, want <= %d", got, rpcAllocsMax)
	}
}

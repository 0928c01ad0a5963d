package srv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
)

// chunkReader hands out its chunks one per Read, whatever the size of
// the caller's buffer — the shapes a TCP stream may deliver.
type chunkReader struct {
	chunks [][]byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	for len(c.chunks) > 0 && len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.chunks[0])
	c.chunks[0] = c.chunks[0][n:]
	return n, nil
}

// frameSet is a stream of frames covering the body shapes: fixed
// fields, strings, name lists, blobs below and above the read buffer,
// one above maxKeptBuf, directory entries, and an unknown type.
func frameSet(t *testing.T) ([]*Fcall, []byte) {
	t.Helper()
	want := []*Fcall{
		{Type: Tversion, Tag: 1, Msize: DefaultMsize, Version: Version},
		{Type: Twalk, Tag: 2, Fid: 3, NewFid: 4, Names: []string{"a", "bb", "ccc"}},
		{Type: Tstat, Tag: 3, Fid: 4},
		{Type: Twrite, Tag: 4, Fid: 4, Off: 9, Data: bytes.Repeat([]byte{1}, 1000)},
		{Type: Rread, Tag: 5, Data: bytes.Repeat([]byte{2}, frameBufSize+100)},
		{Type: Rreaddir, Tag: 6, More: true, Ents: []WireDirEnt{{Ino: 7, Type: 1, Name: "x"}, {Ino: 8, Type: 2, Name: "yy"}}},
		{Type: Rread, Tag: 7, Data: bytes.Repeat([]byte{3}, maxKeptBuf+1)},
		{Type: Rerror, Tag: 8, Code: codeNotExist, Ename: "gone"},
		{Type: Rclunk, Tag: 9},
	}
	var stream []byte
	for _, f := range want {
		var err error
		if stream, err = f.AppendMarshal(stream); err != nil {
			t.Fatal(err)
		}
	}
	// A well-formed frame of unknown type: recoverable, Type preserved.
	stream = append(stream, 7+3, 0, 0, 0, 200, 10, 0, 'x', 'y', 'z')
	want = append(want, &Fcall{Type: 200, Tag: 10})
	return want, stream
}

// readAll drains a frameReader, checking each frame against want and
// that the retained body buffer never exceeds its cap.
func readAll(t *testing.T, fr *frameReader, want []*Fcall) {
	t.Helper()
	for i, w := range want {
		f, err := fr.next(MaxMsize)
		if err != nil {
			t.Fatalf("frame %d (%v): %v", i, w.Type, err)
		}
		if !reflect.DeepEqual(f, w) {
			t.Fatalf("frame %d: got %v tag %d, want %v tag %d", i, f.Type, f.Tag, w.Type, w.Tag)
		}
		if cap(fr.body) > maxKeptBuf {
			t.Fatalf("frame %d: kept a %d-byte body buffer, cap is %d", i, cap(fr.body), maxKeptBuf)
		}
	}
	if _, err := fr.next(MaxMsize); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestFrameReaderChunking feeds the same frames through every delivery
// shape: all coalesced in one read, one byte per read, and split in two
// at every byte boundary of the stream.
func TestFrameReaderChunking(t *testing.T) {
	want, stream := frameSet(t)
	t.Run("coalesced", func(t *testing.T) {
		readAll(t, newFrameReader(&chunkReader{chunks: [][]byte{bytes.Clone(stream)}}), want)
	})
	t.Run("byte-at-a-time", func(t *testing.T) {
		chunks := make([][]byte, len(stream))
		for i := range stream {
			chunks[i] = stream[i : i+1]
		}
		readAll(t, newFrameReader(&chunkReader{chunks: chunks}), want)
	})
	t.Run("every-split", func(t *testing.T) {
		// The large Rread frames make the full stream long; split
		// points within them all take the same body-buffer path, so
		// every boundary of the small-frame prefix is covered and the
		// rest is sampled.
		for k := 1; k < len(stream); k++ {
			if k > 2*frameBufSize && k%509 != 0 {
				continue
			}
			s := bytes.Clone(stream)
			readAll(t, newFrameReader(&chunkReader{chunks: [][]byte{s[:k], s[k:]}}), want)
		}
	})
}

// TestFrameReaderCountsReads pins what reads reports after next:
// frames coalesced in one transport read share its number.
func TestFrameReaderCountsReads(t *testing.T) {
	a, _ := (&Fcall{Type: Tstat, Tag: 1, Fid: 1}).Marshal()
	b, _ := (&Fcall{Type: Tstat, Tag: 2, Fid: 1}).Marshal()
	fr := newFrameReader(&chunkReader{chunks: [][]byte{append(bytes.Clone(a), b...), a}})
	for i, want := range []uint64{1, 1, 2} {
		if _, err := fr.next(MaxMsize); err != nil {
			t.Fatal(err)
		}
		if got := fr.reads(); got != want {
			t.Fatalf("frame %d: reads = %d, want %d", i, got, want)
		}
	}
}

// TestFrameReaderDropsBadFrames checks that frame-level damage behind a
// good frame in the same buffered read still surfaces as the error that
// drops the connection, and that truncation is reported as such.
func TestFrameReaderDropsBadFrames(t *testing.T) {
	good, _ := (&Fcall{Type: Tstat, Tag: 1, Fid: 1}).Marshal()
	hdr := func(size uint32) []byte {
		h := make([]byte, headerBytes)
		binary.LittleEndian.PutUint32(h, size)
		h[4] = byte(Tstat)
		return h
	}
	cases := []struct {
		name  string
		tail  []byte
		msize uint32
		want  error
	}{
		{"undersize", hdr(3), MaxMsize, ErrProto},
		{"oversize", hdr(MaxMsize + 1), MaxMsize, ErrProto},
		{"over-negotiated", hdr(MinMsize + 1), MinMsize, ErrProto},
		{"truncated-header", hdr(11)[:4], MaxMsize, io.ErrUnexpectedEOF},
		{"truncated-body", append(hdr(11), 1, 2), MaxMsize, io.ErrUnexpectedEOF},
		{"truncated-large-body", append(hdr(2*frameBufSize), 1, 2), MaxMsize, io.ErrUnexpectedEOF},
		{"lying-body", append(hdr(7+4+1), 1, 0, 0, 0, 0), MaxMsize, ErrProto},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stream := append(bytes.Clone(good), tc.tail...)
			fr := newFrameReader(&chunkReader{chunks: [][]byte{stream}})
			if f, err := fr.next(tc.msize); err != nil || f.Type != Tstat {
				t.Fatalf("good frame: %v, %v", f, err)
			}
			if _, err := fr.next(tc.msize); !errors.Is(err, tc.want) {
				t.Fatalf("damaged frame: %v, want %v", err, tc.want)
			}
		})
	}
}

// TestWriteFrameKeepsBufferBounded checks the encode buffer a
// connection keeps: reused below maxKeptBuf, dropped above it.
func TestWriteFrameKeepsBufferBounded(t *testing.T) {
	var sink bytes.Buffer
	buf, err := writeFrame(&sink, nil, &Fcall{Type: Rread, Data: make([]byte, 100)}, 0)
	if err != nil || cap(buf) == 0 || len(buf) != 0 {
		t.Fatalf("small frame: kept len %d cap %d, %v; want an empty reusable buffer", len(buf), cap(buf), err)
	}
	buf, err = writeFrame(&sink, buf, &Fcall{Type: Rread, Data: make([]byte, maxKeptBuf)}, 0)
	if err != nil || buf != nil {
		t.Fatalf("large frame: kept cap %d, %v; want nil", cap(buf), err)
	}
	if _, err := writeFrame(&sink, nil, &Fcall{Type: Rread, Data: make([]byte, MinMsize)}, MinMsize); !errors.Is(err, ErrProto) {
		t.Fatalf("frame over msize: %v, want ErrProto", err)
	}
	for sink.Len() > 0 {
		if _, err := ReadFcall(&sink, 0); err != nil {
			t.Fatalf("written frames do not read back: %v", err)
		}
	}
}

// FuzzFrameReuse is the oracle for buffer reuse. Two frames built from
// the input go through one frameReader, delivered in chunks of the
// fuzzed size, so frame B decodes from buffers frame A just used. Each
// must equal a fresh ReadFcall of its own bytes — A checked after B was
// decoded, so nothing A holds may alias a reused buffer — and any frame
// that decodes must re-encode through AppendMarshal onto a dirty buffer
// exactly as Marshal renders it.
func FuzzFrameReuse(f *testing.F) {
	f.Add(uint8(Twrite), []byte("\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x03\x00\x00\x00abc"), uint8(Tstat), []byte("\x01\x00\x00\x00"), uint16(5), []byte("dirty"))
	f.Add(uint8(Twalk), []byte("\x01\x00\x00\x00\x02\x00\x00\x00\x02\x00\x01\x00a\x02\x00bc"), uint8(Rerror), []byte("\x01\x04\x00gone"), uint16(1), []byte{})
	f.Add(uint8(Rreaddir), []byte("\x01\x01\x00\x07\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00xy"), uint8(Rread), bytes.Repeat([]byte{0}, 300), uint16(64), []byte("\xff\xff"))
	f.Add(uint8(Tattach), []byte("\x01\x00\x00\x00\xc8\x00alpha"), uint8(200), []byte("junk"), uint16(3), []byte("prefix"))
	f.Fuzz(func(t *testing.T, typA uint8, bodyA []byte, typB uint8, bodyB []byte, chunk uint16, dirty []byte) {
		frameA := rawFrame(typA, 0x0A0A, bodyA)
		frameB := rawFrame(typB, 0x0B0B, bodyB)
		wantA, errA := ReadFcall(bytes.NewReader(frameA), MaxMsize)
		wantB, errB := ReadFcall(bytes.NewReader(frameB), MaxMsize)
		if errA != nil {
			return // a damaged first frame ends the stream; ReadFcall alone covers it
		}

		stream := append(bytes.Clone(frameA), frameB...)
		size := int(chunk)%(2*frameBufSize) + 1
		var chunks [][]byte
		for len(stream) > 0 {
			n := min(size, len(stream))
			chunks = append(chunks, stream[:n])
			stream = stream[n:]
		}
		fr := newFrameReader(&chunkReader{chunks: chunks})
		gotA, err := fr.next(MaxMsize)
		if err != nil {
			t.Fatalf("frame A: %v, but ReadFcall decoded it", err)
		}
		gotB, err := fr.next(MaxMsize)
		if (err == nil) != (errB == nil) {
			t.Fatalf("frame B: frameReader err %v, ReadFcall err %v", err, errB)
		}
		if err == nil && !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("frame B decoded after A differs from a fresh decode:\n got %+v\nwant %+v", gotB, wantB)
		}
		if !reflect.DeepEqual(gotA, wantA) {
			t.Fatalf("frame A changed after B reused its buffers:\n got %+v\nwant %+v", gotA, wantA)
		}

		for _, fc := range []*Fcall{gotA, gotB} {
			if fc == nil {
				continue
			}
			fresh, mErr := fc.Marshal()
			out, aErr := fc.AppendMarshal(bytes.Clone(dirty))
			if (mErr == nil) != (aErr == nil) {
				t.Fatalf("%v: Marshal err %v, AppendMarshal err %v", fc.Type, mErr, aErr)
			}
			if !bytes.Equal(out[:len(dirty)], dirty) {
				t.Fatalf("%v: AppendMarshal overwrote the buffer's existing bytes", fc.Type)
			}
			if mErr == nil && !bytes.Equal(out[len(dirty):], fresh) {
				t.Fatalf("%v: AppendMarshal onto a dirty buffer differs from Marshal", fc.Type)
			}
			if mErr != nil && len(out) != len(dirty) {
				t.Fatalf("%v: failed AppendMarshal extended the buffer", fc.Type)
			}
		}
	})
}

func rawFrame(typ uint8, tag uint16, body []byte) []byte {
	b := make([]byte, headerBytes, headerBytes+len(body))
	binary.LittleEndian.PutUint32(b, uint32(headerBytes+len(body)))
	b[4] = typ
	binary.LittleEndian.PutUint16(b[5:7], tag)
	return append(b, body...)
}

package main

import (
	"bytes"
	"encoding/binary"
)

// fillPattern writes the seeded content of file id at version ver into
// p (len(p) a multiple of 8). Every file and every rewrite of it has
// its own bytes, so a read that returns another file's data, a stale
// version or zeros fails its check.
func fillPattern(p []byte, seed, id, ver uint64) {
	x := seed ^ (id+1)*0x9e3779b97f4a7c15 ^ (ver+1)*0xbf58476d1ce4e5b9
	for i := 0; i < len(p); i += 8 {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		binary.LittleEndian.PutUint64(p[i:], x*0x2545f4914f6cdd1d)
	}
}

// checker compares read bytes against the seeded pattern, reusing one
// scratch buffer.
type checker struct {
	seed    uint64
	scratch []byte
}

func (c *checker) ok(got []byte, id, ver uint64) bool {
	if cap(c.scratch) < len(got) {
		c.scratch = make([]byte, len(got))
	}
	want := c.scratch[:len(got)]
	fillPattern(want, c.seed, id, ver)
	return bytes.Equal(got, want)
}

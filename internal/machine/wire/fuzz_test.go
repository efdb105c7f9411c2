package wire

import (
	"bytes"
	"testing"

	"cosma/internal/machine"
)

// FuzzFrameDecode throws arbitrary bytes at the frame decoder. The
// invariants: readFrame never panics and never over-allocates (the
// chunked reader caps scratch at maxScratchBytes), and any input it
// accepts must re-encode to exactly the bytes it consumed — modulo
// header byte 3, which is reserved, written as zero and ignored on
// read. Accepted payloads are loaned from the machine buffer pool and
// must be returned.
func FuzzFrameDecode(f *testing.F) {
	// Seed with one frame of every kind plus classic corruptions: bad
	// magic, truncated header, truncated payload, oversized word count.
	seeds := [][]byte{
		appendFrame(nil, frame{kind: kindHello, src: 3}),
		appendFrame(nil, frame{kind: kindData, src: 1, dst: 2, tag: 7, epoch: 1, payload: []float64{1, 2, 3}}),
		appendFrame(nil, frame{kind: kindData, src: 0, dst: 1, tag: -1, at: 2.5, epoch: 9, payload: []float64{0.5}}),
		appendFrame(nil, frame{kind: 3, src: 2, tag: 1<<32 | 4, epoch: 1}), // retired barrier ENTER
		appendFrame(nil, frame{kind: 4, tag: 5}),                           // retired barrier RELEASE
		appendFrame(nil, frame{kind: kindAbort, epoch: 2}),
		appendFrame(nil, frame{kind: kindCtrl, payload: []float64{42}}),
		appendFrame(nil, frame{kind: kindBye}),
		{0x00, 0x01, 0x02},
		appendFrame(nil, frame{kind: kindData})[:headerLen-5],
	}
	trunc := appendFrame(nil, frame{kind: kindData, payload: []float64{1, 2, 3, 4}})
	seeds = append(seeds, trunc[:len(trunc)-9])
	huge := appendFrame(nil, frame{kind: kindData})
	huge[12], huge[13], huge[14], huge[15] = 0xff, 0xff, 0xff, 0xff
	seeds = append(seeds, huge)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bytes.NewReader(data), nil)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		consumed := headerLen + 8*len(fr.payload)
		if consumed > len(data) {
			t.Fatalf("decoder claims %d bytes from a %d-byte input", consumed, len(data))
		}
		enc := appendFrame(nil, fr)
		want := append([]byte(nil), data[:consumed]...)
		want[3] = 0 // reserved byte: ignored on read, zero on write
		if !bytes.Equal(enc, want) {
			t.Fatalf("round trip mismatch:\n got % x\nwant % x", enc, want)
		}
		if fr.payload != nil {
			machine.Release(fr.payload)
		}
	})
}

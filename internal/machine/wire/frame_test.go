package wire

import (
	"bytes"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{kind: kindData, src: 3, dst: 1, tag: 3<<20 + 7, count: 3, epoch: 17, payload: []float64{1, -2.5, 3e300, 0}},
		{kind: kindCtrl, src: 2, tag: 5, epoch: 5, payload: []float64{2, 10, 20, 1, 1, 4096}},
		{kind: kindAbort, src: 0, epoch: 12},
	}
	var buf bytes.Buffer
	var enc []byte
	for _, f := range frames {
		enc = appendFrame(enc, f)
		buf.Write(enc)
	}
	var scratch []byte
	for _, want := range frames {
		var got frame
		var err error
		got, scratch, err = readFrame(&buf, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got.kind != want.kind || got.src != want.src || got.dst != want.dst ||
			got.tag != want.tag || got.count != want.count || got.epoch != want.epoch ||
			len(got.payload) != len(want.payload) {
			t.Fatalf("round trip: got %+v, want %+v", got, want)
		}
		for i := range want.payload {
			if got.payload[i] != want.payload[i] {
				t.Fatalf("payload word %d: got %v, want %v", i, got.payload[i], want.payload[i])
			}
		}
	}
}

func TestFrameRejectsCorruptHeader(t *testing.T) {
	raw := appendFrame(nil, frame{kind: kindData, src: 0, dst: 1, payload: []float64{1}})
	raw[0] = 0x00 // clobber the magic
	if _, _, err := readFrame(bytes.NewReader(raw), nil); err == nil {
		t.Fatal("corrupt magic accepted")
	}
}

// TestFrameRejectsRetiredKinds: kinds 3 and 4 carried the distributed
// barrier; a stream that still speaks them is foreign, like any kind
// this build does not know.
func TestFrameRejectsRetiredKinds(t *testing.T) {
	for _, kind := range []byte{0, 3, 4, 8, 0xff} {
		raw := appendFrame(nil, frame{kind: kind, src: 1, tag: 1<<32 | 4, epoch: 1})
		if _, _, err := readFrame(bytes.NewReader(raw), nil); err == nil {
			t.Fatalf("frame kind %d accepted", kind)
		}
	}
}

// TestHelloNamesTheTile: a HELLO carries the name of the register tile
// its process packs panels for, and only a peer naming the same tile
// is accepted.
func TestHelloNamesTheTile(t *testing.T) {
	raw := appendFrame(nil, frame{kind: kindHello, src: 1, payload: helloTile()})
	f, _, err := readFrame(bytes.NewReader(raw), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTile(f.payload) {
		t.Error("a HELLO from this process names another tile")
	}
	if other := append(helloTile(), 'x'); sameTile(other) {
		t.Error("a HELLO naming another tile is accepted")
	}
	if sameTile(nil) {
		t.Error("a HELLO naming no tile is accepted")
	}
}

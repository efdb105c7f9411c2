package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cosma/internal/machine"
)

// The wire frame is the length-prefixed binary unit every byte on a
// connection belongs to. Layout (little-endian, 40-byte header):
//
//	off  0  magic      0xC5
//	off  1  version    0x01
//	off  2  kind       frame kind (below)
//	off  3  reserved   0
//	off  4  src        uint32  sending rank
//	off  8  dst        uint32  destination rank (data frames)
//	off 12  words      uint32  payload length in float64 words
//	off 16  tag        int64   message tag / ctrl epoch
//	off 24  at         float64 reserved for a departure stamp; 0 (a linked machine has no clock)
//	off 32  epoch      int64   sender's run number
//	off 40  payload    words × 8 bytes of little-endian float64s
//
// Data frames are demultiplexed into the destination rank's
// (src, tag)-keyed mailbox, so the matching discipline over the wire is
// bit-for-bit the in-process one. Control frames (abort, counters)
// never touch mailboxes or traffic counters.
//
// The epoch pins every frame to the run that produced it: processes
// begin runs in lockstep (runs are collective) but not simultaneously, so
// a fast peer's first sends of run n can reach a process that has not
// started run n yet — those are buffered and delivered at its Begin —
// while frames from an aborted run n-1 must never satisfy a receive in
// run n, and are dropped.
const (
	frameMagic   = 0xC5
	frameVersion = 0x01
	headerLen    = 40

	// maxFrameWords bounds a single payload (2^27 words = 1 GiB); a
	// larger length prefix means a corrupt or foreign stream.
	maxFrameWords = 1 << 27

	// maxScratchBytes bounds the reusable byte buffer payloads are read
	// through: readFrame decodes chunk by chunk, so the scratch never
	// grows with the claimed payload length.
	maxScratchBytes = 64 << 10
)

// Frame kinds. 3 and 4 carried the distributed barrier and are retired,
// not reused: readFrame rejects them like any other unknown kind.
const (
	kindHello byte = 1 // handshake: src = dialing process index
	kindData  byte = 2 // counted point-to-point message
	kindAbort byte = 5 // run aborted (cancellation or rank failure)
	kindCtrl  byte = 6 // uncounted out-of-band payload (counter merge)
	kindBye   byte = 7 // clean departure: the sender is closing this connection
)

type frame struct {
	kind     byte
	src, dst int
	tag      int64
	at       float64
	epoch    int64
	payload  []float64
	// release hands the payload back to the machine buffer pool once
	// the frame has been written (the zero-copy owned-send discipline).
	release bool
}

// appendFrame encodes f into buf (reusing its capacity) and returns
// the encoded bytes.
func appendFrame(buf []byte, f frame) []byte {
	need := headerLen + 8*len(f.payload)
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	buf = buf[:need]
	buf[0] = frameMagic
	buf[1] = frameVersion
	buf[2] = f.kind
	buf[3] = 0
	binary.LittleEndian.PutUint32(buf[4:], uint32(f.src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(f.dst))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(f.payload)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(f.tag))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(f.at))
	binary.LittleEndian.PutUint64(buf[32:], uint64(f.epoch))
	for i, v := range f.payload {
		binary.LittleEndian.PutUint64(buf[headerLen+8*i:], math.Float64bits(v))
	}
	return buf
}

// readFrame decodes one frame from r. Payloads are drawn from the
// machine buffer pool, so receivers hand them on (or back) under the
// usual Loan/Release discipline. scratch is the caller's reusable byte
// buffer; the (possibly grown) buffer is returned for the next call.
func readFrame(r io.Reader, scratch []byte) (frame, []byte, error) {
	if cap(scratch) < headerLen {
		scratch = make([]byte, headerLen)
	}
	hdr := scratch[:headerLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, scratch, err
	}
	if hdr[0] != frameMagic || hdr[1] != frameVersion {
		return frame{}, scratch, fmt.Errorf("wire: bad frame header % x (magic/version mismatch)", hdr[:2])
	}
	switch hdr[2] {
	case kindHello, kindData, kindAbort, kindCtrl, kindBye:
	default:
		return frame{}, scratch, fmt.Errorf("wire: unknown frame kind %d", hdr[2])
	}
	f := frame{
		kind:  hdr[2],
		src:   int(binary.LittleEndian.Uint32(hdr[4:])),
		dst:   int(binary.LittleEndian.Uint32(hdr[8:])),
		tag:   int64(binary.LittleEndian.Uint64(hdr[16:])),
		at:    math.Float64frombits(binary.LittleEndian.Uint64(hdr[24:])),
		epoch: int64(binary.LittleEndian.Uint64(hdr[32:])),
	}
	words := int(binary.LittleEndian.Uint32(hdr[12:]))
	if words < 0 || words > maxFrameWords {
		return frame{}, scratch, fmt.Errorf("wire: frame payload of %d words exceeds the %d-word bound", words, maxFrameWords)
	}
	if words == 0 {
		return f, scratch, nil
	}
	// The payload is read in bounded chunks, and the words-sized output
	// buffer is loaned only after the first chunk actually arrived: a
	// corrupt or hostile stream claiming a maximal payload and then
	// hanging up costs at most one chunk of scratch, not a 1 GiB
	// allocation.
	chunk := 8 * words
	if chunk > maxScratchBytes {
		chunk = maxScratchBytes
	}
	if cap(scratch) < chunk {
		scratch = make([]byte, chunk)
	}
	var payload []float64
	for off := 0; off < words; {
		n := words - off
		if 8*n > chunk {
			n = chunk / 8
		}
		raw := scratch[:8*n]
		if _, err := io.ReadFull(r, raw); err != nil {
			if payload != nil {
				machine.Release(payload)
			}
			return frame{}, scratch, fmt.Errorf("wire: truncated %d-word payload: %w", words, err)
		}
		if payload == nil {
			payload = machine.Loan(words)
		}
		for i := 0; i < n; i++ {
			payload[off+i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		off += n
	}
	f.payload = payload
	return f, scratch, nil
}

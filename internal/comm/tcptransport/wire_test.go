package tcptransport

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/comm"
)

// FuzzDecodeFrame throws arbitrary bytes at the frame decoder: it must
// return typed errors on every malformed input — never panic — and any
// input it accepts must re-encode and re-decode to the identical frame.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range []wireFrame{
		{tag: comm.TagDeposit, epoch: 1, Frame: comm.Frame{Elem: 8, Clock: 42, Data: []byte("payload")}},
		{tag: comm.TagDeposit, Frame: comm.Frame{Elem: 4, Clock: 9, Sent: 1 << 40, Data: bytes.Repeat([]byte{7}, 256)}},
		{tag: comm.TagBarrier},
		{tag: comm.TagShrink, epoch: 3, Frame: comm.Frame{Data: make([]byte, 8)}},
		{tag: comm.TagHeartbeat, epoch: 7},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // length far past maxFrame
	lying := make([]byte, 4, 8)
	binary.LittleEndian.PutUint32(lying, maxFrame) // huge claim, tiny stream
	f.Add(append(lying, 0, 1, 2))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrameFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if int(fr.tag) >= comm.NumTags {
			t.Fatalf("decoder accepted unknown tag %d", fr.tag)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr); err != nil {
			t.Fatalf("re-encoding an accepted frame failed: %v", err)
		}
		fr2, err := readFrameFrom(&buf)
		if err != nil {
			t.Fatalf("re-decoding an accepted frame failed: %v", err)
		}
		if fr2.tag != fr.tag || fr2.Elem != fr.Elem || fr2.epoch != fr.epoch ||
			fr2.Clock != fr.Clock || fr2.Sent != fr.Sent || !bytes.Equal(fr2.Data, fr.Data) {
			t.Fatalf("round trip changed the frame: %+v vs %+v", fr, fr2)
		}
	})
}

func TestReadFrameRejectsMalformed(t *testing.T) {
	shortLen := make([]byte, 4)
	binary.LittleEndian.PutUint32(shortLen, hdrLen-1)
	hugeLen := make([]byte, 4)
	binary.LittleEndian.PutUint32(hugeLen, maxFrame+1)
	tornHdr := make([]byte, 4, 6)
	binary.LittleEndian.PutUint32(tornHdr, hdrLen)
	tornHdr = append(tornHdr, 1, 2)
	badTag := make([]byte, 4+hdrLen)
	binary.LittleEndian.PutUint32(badTag, hdrLen)
	badTag[4] = byte(comm.NumTags)
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"torn length", []byte{1, 2}},
		{"length below header", shortLen},
		{"length above maxFrame", hugeLen},
		{"torn header", tornHdr},
		{"first tag past NumTags", badTag},
	}
	for _, tc := range cases {
		if _, err := readFrameFrom(bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: decoded successfully", tc.name)
		}
	}
}

// TestReadFrameAllocationBounded pins the lying-length defense: a prefix
// claiming a maxFrame payload over a 3-byte stream must fail having
// allocated on the order of one chunk, not one gigabyte.
func TestReadFrameAllocationBounded(t *testing.T) {
	var hdr [4 + hdrLen]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	hdr[4] = byte(comm.TagDeposit)
	in := append(hdr[:], 1, 2, 3)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readFrameFrom(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated maxFrame claim decoded successfully")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8*payloadChunk {
		t.Fatalf("decoding a truncated maxFrame claim allocated %d bytes (chunk is %d)", got, payloadChunk)
	}
}

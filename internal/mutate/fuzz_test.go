package mutate

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/ssd"
	"repro/internal/workload"
)

// FuzzParseScript: for any script text ParseScript over the Figure 1 graph
// returns a batch or an error, never panics, and an accepted batch applies
// copy-on-write (or is refused) without panicking or touching the base.
func FuzzParseScript(f *testing.F) {
	for _, src := range []string{
		"addnode ; addnode\naddedge 2 Year $0\naddedge $0 1942 $1\nrelabel 2 Director \"Directed By\"\nsetoid $0 &y1\nsetroot 1",
		"deledge 0 Entry 1",
		"addnode; addedge 0 fresh $0 // comment",
		"relabel 3 Title 7\nsetroot 0",
		"addedge 0 x 2.5; addedge 0 true 0; addedge 0 &o 0",
		"frobnicate 1", "addedge 0 x", "addedge $9 x 0", "addedge 0 \"unterminated 1",
	} {
		f.Add(src)
	}
	g := workload.Fig1(false)
	want := ssd.FormatRoot(g)
	f.Fuzz(func(t *testing.T, src string) {
		b, err := ParseScript(src, g)
		if err != nil {
			return
		}
		ApplyCOW(g, b)
		if ssd.FormatRoot(g) != want {
			t.Fatal("ApplyCOW modified the base graph")
		}
	})
}

// FuzzDecodeBatch covers a follower's network input: the bytes are read as
// a replication stream (frames until the first error) and, since a CRC is
// rarely forged by mutation, also decoded directly as one frame payload.
// Every decoded batch must re-encode to an equal batch and apply to the
// Figure 1 graph, or be refused, without panicking. testdata/fuzz holds
// found inputs: one carries a NaN float label.
func FuzzDecodeBatch(f *testing.F) {
	g := workload.Fig1(false)
	rng := rand.New(rand.NewSource(5))
	var stream bytes.Buffer
	for i := 0; i < 4; i++ {
		payload := EncodeBatch(randBatch(g, rng, 1+i*3))
		f.Add(payload)
		if err := WriteFrameTo(&stream, payload); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(stream.Bytes())
	f.Add([]byte{0x01})
	f.Add(append(EncodeBatch(NewBatch(g)), 0xff))
	f.Add(hostileFrameHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		for {
			payload, err := ReadFrameFrom(br)
			if err != nil {
				break
			}
			decodeAndApply(t, g, payload)
		}
		decodeAndApply(t, g, data)
	})
}

func decodeAndApply(t *testing.T, g *ssd.Graph, payload []byte) {
	b, err := DecodeBatch(payload)
	if err != nil {
		return
	}
	// Compare encodings, not records: a float label may be a NaN, which
	// never equals itself.
	enc := EncodeBatch(b)
	back, err := DecodeBatch(enc)
	if err != nil {
		t.Fatalf("re-encoded batch does not decode: %v", err)
	}
	if !bytes.Equal(EncodeBatch(back), enc) || back.added != b.added {
		t.Fatal("re-encoded batch differs")
	}
	ApplyCOW(g, b)
}

// hostileFrameHeader is a stream frame header claiming a payload just under
// maxFrameBytes, followed by a few bytes and the end of the stream.
func hostileFrameHeader() []byte {
	hdr := binary.AppendUvarint(nil, maxFrameBytes-1)
	return append(hdr, 0, 0, 0, 0, 'x', 'y', 'z')
}

// TestReadFrameFromHostileLength: a length prefix the stream never delivers
// is a truncation, and the reader's memory follows the bytes received, not
// the claim — the follower must not allocate a gigabyte on five bytes.
func TestReadFrameFromHostileLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameFrom(bufio.NewReader(bytes.NewReader(hostileFrameHeader())))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a 7-byte stream allocated %d bytes", grew)
	}
}

package mutate

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ssd"
)

// frameEnds returns the byte offset just past each valid frame of a WAL
// file (offset 0 excluded): frameEnds[0] is the end of the header frame,
// frameEnds[i] the end of batch frame i-1.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	pos := 0
	for pos < len(data) {
		n, used := binary.Uvarint(data[pos:])
		if used <= 0 || pos+used+4+int(n) > len(data) {
			t.Fatalf("corrupt frame at %d", pos)
		}
		pos += used + 4 + int(n)
		ends = append(ends, pos)
	}
	return ends
}

// TestWALTornTailFrameBoundaries pins the torn-tail scan at its exact edge
// cases: a tear landing precisely on a frame boundary keeps every batch
// before it, and tears splitting the next frame's header — inside the
// uvarint length prefix and inside the CRC word — drop exactly the torn
// frame. Replay after each cut must be byte-identical (bisim.Canonicalize)
// to the state the surviving prefix of batches produces.
func TestWALTornTailFrameBoundaries(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "wal")

	g := fig1Fragment()
	base := canon(g)
	w, _, err := OpenWAL(logPath, Fingerprint(fig1Fragment()))
	if err != nil {
		t.Fatal(err)
	}

	// Three deterministic batches. The second is large enough (>127 bytes
	// of payload) that its frame's length prefix is a multi-byte uvarint —
	// so a cut one byte into the frame header genuinely splits the varint.
	var states []string // canon after batches[0..i]
	mkBatch := func(nodes int) *Batch {
		b := NewBatch(g)
		prev := g.Root()
		for i := 0; i < nodes; i++ {
			n := b.AddNode()
			if err := b.AddEdge(prev, ssd.Sym("chain"), n); err != nil {
				t.Fatal(err)
			}
			prev = n
		}
		return b
	}
	for _, size := range []int{2, 200, 3} {
		b := mkBatch(size)
		if _, err := ApplyInPlace(g, b); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(b); err != nil {
			t.Fatal(err)
		}
		states = append(states, canon(g))
	}
	w.Close()

	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	ends := frameEnds(t, data)
	if len(ends) != 4 { // header + 3 batches
		t.Fatalf("frames = %d, want 4", len(ends))
	}
	// The big frame's length prefix must really be multi-byte for the
	// varint-split case to mean anything.
	if n, used := binary.Uvarint(data[ends[1]:]); used < 2 {
		t.Fatalf("big frame length %d encodes in %d byte(s); test needs >= 2", n, used)
	}

	check := func(name string, cut int, wantBatches int) {
		t.Helper()
		torn := filepath.Join(dir, "torn-"+name)
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, _, err := OpenWAL(torn, Fingerprint(fig1Fragment()))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defer w2.Close()
		if w2.Batches() != wantBatches {
			t.Fatalf("%s: %d batches survived, want %d", name, w2.Batches(), wantBatches)
		}
		h := fig1Fragment()
		if err := w2.Replay(func(b *Batch) error { _, err := ApplyInPlace(h, b); return err }); err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		want := base
		if wantBatches > 0 {
			want = states[wantBatches-1]
		}
		if got := canon(h); got != want {
			t.Fatalf("%s: replayed state not byte-identical to the %d-batch prefix:\n got %s\nwant %s",
				name, wantBatches, got, want)
		}
	}

	// ends[i] is the end of the i-th frame: a cut there keeps the header
	// plus i batches (i = 0 keeps just the header).
	for i := 0; i < len(ends); i++ {
		check(fmt.Sprintf("boundary-%d", i), ends[i], i)
	}
	for i := 0; i < len(ends)-1; i++ {
		used, _ := uvarintLen(data[ends[i]:])
		// One byte into the next frame's header: splits the length varint
		// itself when it is multi-byte (the big frame), else leaves a bare
		// length with no CRC.
		check(fmt.Sprintf("varint-split-%d", i), ends[i]+1, i)
		// Inside the CRC word of the next frame's header.
		check(fmt.Sprintf("crc-split-%d", i), ends[i]+used+2, i)
		// One byte short of the next boundary: the payload is torn and the
		// CRC check rejects it.
		check(fmt.Sprintf("payload-split-%d", i), ends[i+1]-1, i)
	}
}

// uvarintLen returns how many bytes the uvarint at the head of b occupies
// and its value.
func uvarintLen(b []byte) (int, uint64) {
	v, used := binary.Uvarint(b)
	return used, v
}

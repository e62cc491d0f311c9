package storage

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/dataguide"
	"repro/internal/index"
	"repro/internal/stats"
)

// FuzzDecodeSnapshot covers the bootstrap image a follower downloads from
// its leader: DecodeSnapshot must return a snapshot or an error for any
// bytes, never panic. Mutated bytes rarely keep their section CRCs, so each
// input is also decoded after reframe repairs the checksums and the graph
// fingerprint, which lets the fuzzer reach the section decoders. An image
// that decodes must re-encode to an image that decodes again.
func FuzzDecodeSnapshot(f *testing.F) {
	g := snapGraph(f)
	full := &Snapshot{
		Graph:  g,
		Labels: index.BuildLabelIndex(g),
		Values: index.BuildValueIndex(g),
		Guide:  dataguide.MustBuild(g),
		Stats:  stats.Build(g),
	}
	f.Add(EncodeSnapshot(full))
	f.Add(EncodeSnapshot(&Snapshot{Graph: g, CommitSeq: 9, Applied: 2}))
	v1 := EncodeSnapshot(&Snapshot{Graph: g, Labels: index.BuildLabelIndex(g)})
	v1[4] = 1
	f.Add(v1)
	f.Add([]byte(snapMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeRoundTrip(t, data)
		decodeRoundTrip(t, reframe(data))
	})
}

func decodeRoundTrip(t *testing.T, data []byte) {
	s, err := DecodeSnapshot(data)
	if err != nil {
		return
	}
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); err != nil {
		t.Fatalf("accepted image re-encodes to an undecodable one: %v", err)
	}
}

// reframe returns a copy of a snapshot image with every well-framed
// section's CRC recomputed and the meta fingerprint set to the graph
// section's checksum. Framing it cannot follow is left as is.
func reframe(data []byte) []byte {
	out := append([]byte(nil), data...)
	type sec struct {
		kind            byte
		sumAt, from, to int
	}
	var secs []sec
	for pos := 5; pos < len(out); {
		kind := out[pos]
		pos++
		n, used := binary.Uvarint(out[pos:])
		if used <= 0 || n > uint64(len(out)) || pos+used+4+int(n) > len(out) {
			break
		}
		sumAt := pos + used
		secs = append(secs, sec{kind, sumAt, sumAt + 4, sumAt + 4 + int(n)})
		pos = sumAt + 4 + int(n)
	}
	for _, g := range secs {
		if g.kind != secGraph {
			continue
		}
		for _, m := range secs {
			if m.kind == secMeta && m.to-m.from >= 4 {
				binary.LittleEndian.PutUint32(out[m.from:], crc32.ChecksumIEEE(out[g.from:g.to]))
			}
		}
	}
	for _, s := range secs {
		binary.LittleEndian.PutUint32(out[s.sumAt:], crc32.ChecksumIEEE(out[s.from:s.to]))
	}
	return out
}

package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/memory"
)

// goldenSums are the SHA-256 digests of the streams TestGoldenStreams
// encodes, recorded with the codec that kept a private baseline cache
// (stage/commit/rollback) before the replica mirror became the
// baseline. Matching them proves the wire bytes did not change.
var goldenSums = []string{
	"337de9a1470a6cf01fead7fa94e2e856c079562706b45c9d0c90523b0b0db9b4", // raw mode
	"c00fcbed55486bb5898f50f3cada674080c9716aa78e7b4d80b25f9c87f6d6e3", // epoch 0
	"11a1040d3c9a71987913a138c67864ae28c710bba9cd9c14a5a41081c9e105f1", // epoch 1
	"8613b5636915a5a422454af08c8589a6369e1c80a7fd60daf535b1d20b02fb28", // epoch 2, abandoned
	"3932e67b8a0755ae9f958ed84444431ccf1b89ff8993a2d5d61c6f7edb2da0ea", // epoch 3
	"fb7e0248c7b78f459f4e9f59f8176d7306aecfd43d662b4c20854dea3effd257", // overwrite
	"1c01a63d89a719d492b178118ae95719887e18a9b3bc2a65d42f6dfcea8abdd5", // epoch 5
}

func goldenRange(first memory.PageNum, n int) []memory.PageNum {
	out := make([]memory.PageNum, n)
	for i := range out {
		out[i] = first + memory.PageNum(i)
	}
	return out
}

// TestGoldenStreams encodes a fixed seeded sequence — raw mode, delta
// epochs with zero runs and duplicate pages, an abandoned stream
// followed by an acknowledged one, and an overwrite resync — and
// checks every stream byte for byte against goldenSums.
func TestGoldenStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	var buf, zeros [memory.PageSize]byte
	write := func(src *memory.GuestMemory, p memory.PageNum) {
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	random := func(src *memory.GuestMemory, p memory.PageNum) {
		randomPage(rng, buf[:])
		write(src, p)
	}
	sparse := func(src *memory.GuestMemory, p memory.PageNum) {
		clear(buf[:])
		for i := 0; i < 3; i++ {
			buf[rng.Intn(memory.PageSize)] = byte(1 + rng.Intn(255))
		}
		write(src, p)
	}
	patch := func(src *memory.GuestMemory, p memory.PageNum) {
		if err := src.ReadPage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		off := rng.Intn(memory.PageSize - 32)
		for j := 0; j < 32; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		write(src, p)
	}
	popZero := func(src *memory.GuestMemory, p memory.PageNum) {
		// Populated but all zero: only a content check finds it.
		if err := src.Write(memory.Addr(p)*memory.PageSize, zeros[:]); err != nil {
			t.Fatal(err)
		}
	}
	sector := func() []DiskWrite {
		d := make([]byte, SectorSize)
		randomPage(rng, d)
		return []DiskWrite{{Sector: uint64(rng.Intn(1000)), Data: d}}
	}
	n := 0
	check := func(cp *Checkpoint, err error) *Checkpoint {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(cp.Stream)
		if got := hex.EncodeToString(h[:]); got != goldenSums[n] {
			t.Errorf("stream %d: sha256 %s, want %s", n, got, goldenSums[n])
		}
		n++
		return cp
	}

	// Raw mode: content pages, unpopulated and populated-zero pages,
	// duplicates, three shards, a disk write and a state record.
	src, mirror := newMem(), newMem()
	for p := memory.PageNum(0); p < 10; p++ {
		random(src, p)
	}
	for p := memory.PageNum(600); p < 606; p++ {
		random(src, p)
	}
	random(src, 1500)
	random(src, 1501)
	popZero(src, 20)
	pages := append(goldenRange(0, 13), 20)
	pages = append(pages, goldenRange(600, 6)...)
	pages = append(pages, 605, 3, 1500, 1501, 1502, 7)
	check(NewEncoder(false).Encode(src, mirror, pages, []byte("raw-state"), sector(), 0, 3))

	enc := NewEncoder(true)
	ack := func(cp *Checkpoint) {
		t.Helper()
		if _, err := Decode(cp.Stream, mirror); err != nil {
			t.Fatal(err)
		}
	}

	// Content-aware, epoch 0: random, sparse and zero pages across
	// two regions, duplicates, four shards.
	src = newMem()
	for p := memory.PageNum(0); p < 100; p++ {
		if p%3 == 0 {
			sparse(src, p)
		} else {
			random(src, p)
		}
	}
	popZero(src, 30)
	for p := memory.PageNum(512); p < 521; p++ {
		random(src, p)
	}
	pages = append(goldenRange(0, 120), 5, 50, 110)
	pages = append(pages, goldenRange(512, 9)...)
	ack(check(enc.Encode(src, mirror, pages, nil, nil, 0, 4)))

	// Epoch 1: 32-byte patches, pages zeroed both ways, fresh random
	// content over old (raw fallback), duplicates, state and disk.
	for p := memory.PageNum(0); p < 50; p++ {
		patch(src, p)
	}
	for p := memory.PageNum(50); p < 60; p++ {
		clear(buf[:])
		write(src, p)
	}
	for p := memory.PageNum(60); p < 65; p++ {
		popZero(src, p)
	}
	for p := memory.PageNum(70); p < 73; p++ {
		random(src, p)
	}
	pages = append(goldenRange(0, 73), 12, 61, 515)
	ack(check(enc.Encode(src, mirror, pages, []byte("state-1"), sector(), 1, 4)))

	// Epoch 2 is encoded but abandoned: the mirror stays on epoch 1.
	for p := memory.PageNum(0); p < 10; p++ {
		patch(src, p)
	}
	check(enc.Encode(src, mirror, goldenRange(0, 10), []byte("state-2"), nil, 2, 4))

	// Epoch 3 must diff against epoch 1, the last acked one.
	for p := memory.PageNum(5); p < 16; p++ {
		patch(src, p)
	}
	ack(check(enc.Encode(src, mirror, goldenRange(0, 16), []byte("state-3"), nil, 3, 2)))
	if src.Hash() != mirror.Hash() {
		t.Fatal("mirror diverged after the acked epoch")
	}

	// Overwrite mode: zero and raw frames only, duplicates skipped.
	random(src, 3)
	clear(buf[:])
	write(src, 52)
	pages = append(goldenRange(0, 21), goldenRange(50, 6)...)
	pages = append(pages, 3, 512, 513, 514, 515)
	ack(check(enc.EncodeOverwrite(src, pages, []byte("state-4"), sector(), 4)))

	// Epoch 5: deltas again after the overwrite resync.
	for p := memory.PageNum(0); p < 4; p++ {
		patch(src, p)
	}
	ack(check(enc.Encode(src, mirror, goldenRange(0, 4), nil, nil, 5, 4)))
	if src.Hash() != mirror.Hash() {
		t.Fatal("mirror diverged after the resync")
	}
	if n != len(goldenSums) {
		t.Fatalf("checked %d streams, have %d golden sums", n, len(goldenSums))
	}
}

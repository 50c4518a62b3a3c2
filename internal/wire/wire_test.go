package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/memory"
)

const testPages = 64 * memory.RegionPages // 128 MiB worth of page numbers

// newMem returns an empty guest memory of testPages pages.
func newMem() *memory.GuestMemory {
	return memory.NewGuestMemory(uint64(testPages) * memory.PageSize)
}

// randomPage fills a page buffer with seeded pseudo-random content.
func randomPage(rng *rand.Rand, buf []byte) {
	for i := range buf {
		buf[i] = byte(rng.Intn(256))
	}
}

// mutate dirties a set of pages on src with a mix of content: fresh
// random pages, small in-place edits, and explicit re-zeroing. It
// returns the dirty set.
func mutate(t *testing.T, rng *rand.Rand, src *memory.GuestMemory) []memory.PageNum {
	t.Helper()
	n := 1 + rng.Intn(200)
	seen := make(map[memory.PageNum]bool)
	var dirty []memory.PageNum
	var buf [memory.PageSize]byte
	for i := 0; i < n; i++ {
		p := memory.PageNum(rng.Intn(testPages))
		if seen[p] {
			continue
		}
		seen[p] = true
		dirty = append(dirty, p)
		switch rng.Intn(4) {
		case 0: // fresh random content
			randomPage(rng, buf[:])
		case 1: // small edit of the existing image (delta-friendly)
			if err := src.ReadPage(p, buf[:]); err != nil {
				t.Fatal(err)
			}
			off := rng.Intn(memory.PageSize - 8)
			for j := 0; j < 8; j++ {
				buf[off+j] = byte(rng.Intn(256))
			}
		case 2: // re-zeroed page (drops the backing page)
			clear(buf[:])
		case 3: // sparse content: a few words on a zero page
			clear(buf[:])
			buf[rng.Intn(memory.PageSize)] = byte(1 + rng.Intn(255))
		}
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	return dirty
}

// roundTrip encodes the dirty set on src against dst, the replica
// mirror, and decodes into dst — the acknowledged path that advances
// the delta baseline — failing the test on any error.
func roundTrip(t *testing.T, enc *Encoder, src, dst *memory.GuestMemory,
	dirty []memory.PageNum, seq uint64, shards int) (*Checkpoint, *Result) {
	t.Helper()
	cp, err := enc.Encode(src, dst, dirty, nil, nil, seq, shards)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	res, err := Decode(cp.Stream, dst)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return cp, res
}

// TestRoundTripReproducesMemory drives many epochs of random mutation
// — including all-zero and re-zeroed pages — through both encoder
// modes and several shard counts, checking the decoded replica matches
// the source exactly after every epoch.
func TestRoundTripReproducesMemory(t *testing.T) {
	for _, contentAware := range []bool{false, true} {
		for _, shards := range []int{1, 3, 8} {
			rng := rand.New(rand.NewSource(int64(shards) + 100))
			enc := NewEncoder(contentAware)
			src, dst := newMem(), newMem()
			for epoch := 0; epoch < 12; epoch++ {
				dirty := mutate(t, rng, src)
				if !contentAware {
					// Raw mode keeps no baseline: the mirror must not
					// change a single byte of the stream.
					a, err := enc.Encode(src, dst, dirty, nil, nil, uint64(epoch), shards)
					if err != nil {
						t.Fatal(err)
					}
					b, err := enc.Encode(src, nil, dirty, nil, nil, uint64(epoch), shards)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(a.Stream, b.Stream) {
						t.Fatalf("shards=%d epoch %d: raw stream depends on the baseline", shards, epoch)
					}
				}
				cp, res := roundTrip(t, enc, src, dst, dirty, uint64(epoch), shards)
				if src.Hash() != dst.Hash() {
					t.Fatalf("contentAware=%v shards=%d epoch %d: replica hash mismatch",
						contentAware, shards, epoch)
				}
				if res.Seq != uint64(epoch) {
					t.Fatalf("seq = %d, want %d", res.Seq, epoch)
				}
				if cp.Stats.RawBytes != int64(len(dirty))*memory.PageSize {
					t.Fatalf("RawBytes = %d, want %d pages",
						cp.Stats.RawBytes, len(dirty))
				}
				if got := cp.Stats.ZeroPages + cp.Stats.DeltaFrames +
					cp.Stats.RawFrames; got != int64(len(dirty)) {
					t.Fatalf("frame mix covers %d pages, dirty set has %d",
						got, len(dirty))
				}
			}
		}
	}
}

// TestContentAwareEncodesSmall checks the headline property: an idle
// or lightly-edited dirty set encodes to far fewer bytes than its raw
// size, via zero-run and delta frames.
func TestContentAwareEncodesSmall(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	rng := rand.New(rand.NewSource(7))

	// Epoch 0: 1000 touched-but-zero pages and 10 content pages.
	var dirty []memory.PageNum
	var buf [memory.PageSize]byte
	for p := memory.PageNum(0); p < 1000; p++ {
		dirty = append(dirty, p)
	}
	for p := memory.PageNum(1000); p < 1010; p++ {
		randomPage(rng, buf[:])
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		dirty = append(dirty, p)
	}
	cp, _ := roundTrip(t, enc, src, dst, dirty, 0, 4)
	if cp.Stats.ZeroPages != 1000 || cp.Stats.RawFrames != 10 {
		t.Fatalf("frame mix = %+v, want 1000 zero pages + 10 raw", cp.Stats)
	}
	// 1000 zero pages collapse to a handful of run frames; only the 10
	// random pages cost real bytes.
	if cp.WireSize > 11*memory.PageSize {
		t.Fatalf("WireSize = %d, want ≈ 10 pages", cp.WireSize)
	}

	// Epoch 1: edit 8 bytes in each content page — deltas should make
	// the whole checkpoint tiny.
	dirty = dirty[:0]
	for p := memory.PageNum(1000); p < 1010; p++ {
		if err := src.ReadPage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			buf[100+j] ^= 0xFF
		}
		if err := src.WritePage(p, buf[:]); err != nil {
			t.Fatal(err)
		}
		dirty = append(dirty, p)
	}
	cp, _ = roundTrip(t, enc, src, dst, dirty, 1, 4)
	if cp.Stats.DeltaFrames != 10 {
		t.Fatalf("DeltaFrames = %d, want 10", cp.Stats.DeltaFrames)
	}
	if cp.WireSize > 1024 {
		t.Fatalf("delta checkpoint WireSize = %d, want well under 1 KiB", cp.WireSize)
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged")
	}
	if r := cp.Stats.Ratio(); r >= 0.01 {
		t.Fatalf("measured ratio = %f, want < 0.01", r)
	}
}

// TestRawModeChargesFullPages checks raw mode's modeled wire size: the
// stream still coalesces zero pages into run frames, but the link is
// charged PageSize per page as an unencoded stream would be.
func TestRawModeChargesFullPages(t *testing.T) {
	enc := NewEncoder(false)
	src, dst := newMem(), newMem()
	dirty := []memory.PageNum{0, 1, 2, 3, 4}
	cp, _ := roundTrip(t, enc, src, dst, dirty, 0, 2)
	if cp.WireSize < 5*memory.PageSize {
		t.Fatalf("WireSize = %d, want ≥ %d", cp.WireSize, 5*memory.PageSize)
	}
	if cp.Stats.ZeroFrames == 0 {
		t.Fatal("zero pages should still frame as runs physically")
	}
}

// TestRollbackKeepsBaseline checks the baseline lifecycle: an
// abandoned stream — encoded but never acknowledged, so never decoded
// into the mirror — must not advance the delta baseline, so the next
// encode still diffs against the last acknowledged epoch and the
// replica decodes to the source exactly.
func TestRollbackKeepsBaseline(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	var buf [memory.PageSize]byte
	rng := rand.New(rand.NewSource(3))
	randomPage(rng, buf[:])
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, enc, src, dst, []memory.PageNum{42}, 0, 1)
	acked := dst.Hash()

	// Mutate and encode, but abandon the checkpoint.
	buf[0] ^= 0xAA
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Encode(src, dst, []memory.PageNum{42}, nil, nil, 1, 1); err != nil {
		t.Fatal(err)
	}
	if dst.Hash() != acked {
		t.Fatal("encoding moved the baseline off the acknowledged epoch")
	}

	// Mutate again; the re-encode must diff against epoch 0's image,
	// and the decoded replica must equal the current source.
	buf[1] ^= 0xBB
	if err := src.WritePage(42, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, _ := roundTrip(t, enc, src, dst, []memory.PageNum{42}, 2, 1)
	if cp.Stats.DeltaFrames != 1 {
		t.Fatalf("want a delta frame after rollback, got %+v", cp.Stats)
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged after rollback/re-encode")
	}
}

// TestCommitDropsRezeroedBaseline checks that a page going all-zero
// leaves the baseline on acknowledgement: the mirror must not keep an
// image the replica no longer has as content.
func TestCommitDropsRezeroedBaseline(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	var buf [memory.PageSize]byte
	buf[10] = 1
	if err := src.WritePage(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, enc, src, dst, []memory.PageNum{5}, 0, 1)
	if dst.NonZeroPages() != 1 {
		t.Fatalf("baseline = %d pages, want 1", dst.NonZeroPages())
	}
	clear(buf[:])
	if err := src.WritePage(5, buf[:]); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, enc, src, dst, []memory.PageNum{5}, 1, 1)
	if dst.PopulatedPages() != 0 {
		t.Fatalf("re-zeroed page kept its baseline: %d pages", dst.PopulatedPages())
	}
	if src.Hash() != dst.Hash() {
		t.Fatal("replica diverged")
	}
}

// TestStateAndDiskFramesRoundTrip checks the non-page payloads.
func TestStateAndDiskFramesRoundTrip(t *testing.T) {
	enc := NewEncoder(true)
	src, dst := newMem(), newMem()
	state := []byte("machine-state-record")
	sector := make([]byte, SectorSize)
	sector[0] = 0xDE
	disk := []DiskWrite{{Sector: 9, Data: sector}, {Sector: 11, Data: sector}}
	cp, err := enc.Encode(src, nil, nil, state, disk, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decode(cp.Stream, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.State, state) {
		t.Fatalf("state = %q, want %q", res.State, state)
	}
	if len(res.Disk) != 2 || res.Disk[0].Sector != 9 || res.Disk[1].Sector != 11 {
		t.Fatalf("disk writes = %+v", res.Disk)
	}
	if !bytes.Equal(res.Disk[0].Data, sector) {
		t.Fatal("sector data corrupted")
	}
	if cp.Stats.StateFrames != 1 || cp.Stats.DiskFrames != 2 {
		t.Fatalf("stats = %+v", cp.Stats)
	}
}

// TestDecodeRejectsCorruption flips every byte of a valid stream in
// turn: each corruption must be rejected with a typed error and must
// leave the destination untouched.
func TestDecodeRejectsCorruption(t *testing.T) {
	enc := NewEncoder(true)
	src := newMem()
	rng := rand.New(rand.NewSource(5))
	var buf [memory.PageSize]byte
	randomPage(rng, buf[:])
	if err := src.WritePage(1, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, err := enc.Encode(src, nil, []memory.PageNum{0, 1}, []byte("st"),
		[]DiskWrite{{Sector: 1, Data: make([]byte, SectorSize)}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	typed := []error{ErrTruncated, ErrMagic, ErrVersion, ErrFrameType,
		ErrFrameSize, ErrChecksum, ErrPageRange, ErrDelta, ErrCommit}
	for i := range cp.Stream {
		mutated := append([]byte(nil), cp.Stream...)
		mutated[i] ^= 0x01
		dst := newMem()
		_, err := Decode(mutated, dst)
		if err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
		found := false
		for _, want := range typed {
			if errors.Is(err, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("corruption at byte %d: untyped error %v", i, err)
		}
		if dst.PopulatedPages() != 0 {
			t.Fatalf("corruption at byte %d half-applied: %d pages written",
				i, dst.PopulatedPages())
		}
	}
	// Truncation at every length must also reject without applying.
	for cut := 0; cut < len(cp.Stream); cut++ {
		dst := newMem()
		if _, err := Decode(cp.Stream[:cut], dst); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if dst.PopulatedPages() != 0 {
			t.Fatalf("truncation at %d half-applied", cut)
		}
	}
}

// TestDecodeRejectsOutOfRange checks page- and structure-level limits.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	enc := NewEncoder(false)
	big := memory.NewGuestMemory(16 * memory.PageSize)
	var buf [memory.PageSize]byte
	buf[0] = 1
	if err := big.WritePage(12, buf[:]); err != nil {
		t.Fatal(err)
	}
	cp, err := enc.Encode(big, nil, []memory.PageNum{12}, nil, nil, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	small := memory.NewGuestMemory(4 * memory.PageSize)
	if _, err := Decode(cp.Stream, small); !errors.Is(err, ErrPageRange) {
		t.Fatalf("err = %v, want ErrPageRange", err)
	}
	if _, err := Decode(cp.Stream, nil); err == nil {
		t.Fatal("nil destination accepted")
	}
	if _, err := Decode(nil, small); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if _, err := enc.Encode(big, nil, []memory.PageNum{99}, nil, nil, 0, 1); err == nil {
		t.Fatal("encode accepted out-of-range page")
	}
}

// TestStatsRatio pins Stats.Ratio edge cases.
func TestStatsRatio(t *testing.T) {
	if r := (Stats{}).Ratio(); r != 1 {
		t.Fatalf("empty ratio = %v, want 1", r)
	}
	if r := (Stats{RawBytes: 100, EncodedBytes: 25}).Ratio(); r != 0.25 {
		t.Fatalf("ratio = %v, want 0.25", r)
	}
}

// rleReference is the byte-at-a-time run-length encoder the word-wise
// rleEncode must reproduce exactly.
func rleReference(residual []byte) []byte {
	var dst []byte
	i := 0
	for i < len(residual) {
		run := i
		for run < len(residual) && residual[run] == 0 {
			run++
		}
		if run == len(residual) {
			break
		}
		zeros, end := 0, run
		for ; end < len(residual); end++ {
			if residual[end] != 0 {
				zeros = 0
				continue
			}
			if zeros++; zeros >= rleGapThreshold {
				end -= zeros - 1
				break
			}
		}
		dst = binary.AppendUvarint(dst, uint64(run-i))
		dst = binary.AppendUvarint(dst, uint64(end-run))
		dst = append(dst, residual[run:end]...)
		i = end
	}
	return dst
}

// TestRLEMatchesReference checks the word-wise encoder against the
// byte-wise reference on residuals whose zero gaps straddle word
// boundaries at every length around rleGapThreshold, including the
// raw cut-over: rleEncode must give up exactly when the reference
// encoding reaches PageSize bytes.
func TestRLEMatchesReference(t *testing.T) {
	var residual [memory.PageSize]byte
	// Leading zeros then one literal to the page end: 3 zeros encode to
	// exactly PageSize bytes (raw), 4 zeros to one byte less (delta).
	for zeros, wantOK := range map[int]bool{3: false, 4: true} {
		for i := range residual {
			residual[i] = 1
		}
		clear(residual[:zeros])
		if _, ok := rleEncode(nil, residual[:]); ok != wantOK {
			t.Fatalf("%d leading zeros: ok=%v, want %v", zeros, ok, wantOK)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for iter := 0; iter < 2000; iter++ {
		clear(residual[:])
		density := rng.Intn(memory.PageSize) + 1 // non-zero bytes
		if iter%4 == 0 {
			density = memory.PageSize - rng.Intn(64) // near-full pages
		}
		for k := 0; k < density; k++ {
			residual[rng.Intn(memory.PageSize)] = byte(1 + rng.Intn(255))
		}
		// Gaps of 1..8 zeros at random offsets exercise the threshold.
		for k := rng.Intn(20); k > 0; k-- {
			off := rng.Intn(memory.PageSize - 8)
			clear(residual[off : off+1+rng.Intn(8)])
		}
		want := rleReference(residual[:])
		got, ok := rleEncode(nil, residual[:])
		if ok != (len(want) < memory.PageSize) {
			t.Fatalf("iter %d: ok=%v for a %d-byte reference encoding", iter, ok, len(want))
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("iter %d: word-wise encoding differs from the reference", iter)
		}
	}
}

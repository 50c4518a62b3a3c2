package wire

import (
	"math/rand"
	"testing"

	"github.com/here-ft/here/internal/memory"
)

// benchPages is the layer benchmarks' checkpoint size: 4096 dirty
// pages (16 MiB) over four shards.
const (
	benchPages  = 4096
	benchShards = 4
)

// fixtureStride spreads fixture pages so that even a small checkpoint
// spans every shard's regions.
const fixtureStride = 8

// deltaFixture builds the delta benchmarks' input: base holds n random
// pages, src the same pages with 32 bytes patched in each and every
// eighth page zeroed — the replicate-sparse epoch shape.
func deltaFixture(tb testing.TB, n int) (src, base *memory.GuestMemory, pages []memory.PageNum) {
	tb.Helper()
	src, base = newMem(), newMem()
	rng := rand.New(rand.NewSource(9))
	var buf [memory.PageSize]byte
	for i := 0; i < n; i++ {
		p := memory.PageNum(i * fixtureStride)
		randomPage(rng, buf[:])
		if err := base.WritePage(p, buf[:]); err != nil {
			tb.Fatal(err)
		}
		if i%8 == 0 {
			clear(buf[:])
		} else {
			off := rng.Intn(memory.PageSize - 32)
			for j := off; j < off+32; j++ {
				buf[j] = byte(rng.Intn(256))
			}
		}
		if err := src.WritePage(p, buf[:]); err != nil {
			tb.Fatal(err)
		}
		pages = append(pages, p)
	}
	return src, base, pages
}

// rawFixture holds n random pages.
func rawFixture(tb testing.TB, n int) (*memory.GuestMemory, []memory.PageNum) {
	tb.Helper()
	src := newMem()
	rng := rand.New(rand.NewSource(8))
	var buf [memory.PageSize]byte
	var pages []memory.PageNum
	for i := 0; i < n; i++ {
		p := memory.PageNum(i * fixtureStride)
		randomPage(rng, buf[:])
		if err := src.WritePage(p, buf[:]); err != nil {
			tb.Fatal(err)
		}
		pages = append(pages, p)
	}
	return src, pages
}

func BenchmarkEncodeRaw(b *testing.B) {
	src, pages := rawFixture(b, benchPages)
	enc := NewEncoder(false)
	b.SetBytes(benchPages * memory.PageSize)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := enc.Encode(src, nil, pages, nil, nil, 1, benchShards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeDelta(b *testing.B) {
	src, base, pages := deltaFixture(b, benchPages)
	enc := NewEncoder(true)
	b.SetBytes(benchPages * memory.PageSize)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := enc.Encode(src, base, pages, nil, nil, 1, benchShards); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecode applies the delta checkpoint of BenchmarkEncodeDelta.
// Re-applying an XOR delta flips the pages between the two epochs, so
// every iteration does the same work.
func BenchmarkDecode(b *testing.B) {
	src, base, pages := deltaFixture(b, benchPages)
	cp, err := NewEncoder(true).Encode(src, base, pages, nil, nil, 0, benchShards)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchPages * memory.PageSize)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Decode(cp.Stream, base); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRLE encodes one page's residual: 32 patched bytes.
func BenchmarkRLE(b *testing.B) {
	var residual [memory.PageSize]byte
	rng := rand.New(rand.NewSource(4))
	for j := 1000; j < 1032; j++ {
		residual[j] = byte(1 + rng.Intn(255))
	}
	dst := make([]byte, 0, memory.PageSize)
	b.SetBytes(memory.PageSize)
	b.ReportAllocs()
	for b.Loop() {
		if _, ok := rleEncode(dst[:0], residual[:]); !ok {
			b.Fatal("residual encoded as raw")
		}
	}
}

// TestEncodeAllocsScaleWithShards pins the codec's allocation profile:
// allocations per Encode depend on the shard count, never on how many
// pages the checkpoint carries.
func TestEncodeAllocsScaleWithShards(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB fixtures")
	}
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop chunks at random")
	}
	allocs := func(contentAware bool, n int) float64 {
		var src, base *memory.GuestMemory
		var pages []memory.PageNum
		if contentAware {
			src, base, pages = deltaFixture(t, n)
		} else {
			src, pages = rawFixture(t, n)
		}
		enc := NewEncoder(contentAware)
		return testing.AllocsPerRun(20, func() {
			if _, err := enc.Encode(src, base, pages, nil, nil, 1, benchShards); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, contentAware := range []bool{false, true} {
		small, large := allocs(contentAware, 256), allocs(contentAware, benchPages)
		if large > small || large > 4*benchShards+8 {
			t.Errorf("contentAware=%v: %v allocs at %d pages, %v at 256 pages; want no growth with pages and at most %d",
				contentAware, large, benchPages, small, 4*benchShards+8)
		}
	}
}

package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/trace"
)

// Encoder turns checkpoints into framed wire streams. In content-aware
// mode it picks the cheapest encoding per page: zero-run elision, XOR+
// RLE delta against the baseline, or raw fallback.
//
// The delta baseline is the replica mirror the caller passes to
// Encode: a memory holding exactly the last epoch the replica
// acknowledged. The caller decodes a stream into its mirror only once
// the replica acknowledged it, so an abandoned stream leaves the
// baseline on the acked epoch and the next cycle's deltas still diff
// against what the replica holds.
//
// An Encoder is safe for concurrent use; Encode itself fans the page
// work out across shard workers using the same round-robin 2 MiB
// region assignment as the transfer threads.
type Encoder struct {
	contentAware bool

	mu sync.Mutex
	// Registry instruments (here_wire_*), set by Instrument; nil until then.
	rawBytesC, encodedBytesC, zeroPagesC, deltaFramesC, rawFramesC *trace.Counter
	encodeSec                                                      *trace.Histogram
}

// Instrument registers the codec's instruments into reg: every encode
// accumulates its measured Stats into here_wire_raw_bytes_total,
// here_wire_encoded_bytes_total, here_wire_zero_pages_total,
// here_wire_delta_frames_total and here_wire_raw_frames_total, and
// observes its wall time (Stats.EncodeTime) in here_wire_encode_seconds.
func (e *Encoder) Instrument(reg *trace.Registry) {
	if reg == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rawBytesC = reg.Counter("here_wire_raw_bytes_total",
		"checkpoint payload before encoding")
	e.encodedBytesC = reg.Counter("here_wire_encoded_bytes_total",
		"framed stream bytes as shipped on the link")
	e.zeroPagesC = reg.Counter("here_wire_zero_pages_total",
		"pages elided as all-zero runs")
	e.deltaFramesC = reg.Counter("here_wire_delta_frames_total",
		"pages shipped as XOR deltas against the acked baseline")
	e.rawFramesC = reg.Counter("here_wire_raw_frames_total",
		"pages shipped verbatim")
	e.encodeSec = reg.Histogram("here_wire_encode_seconds",
		"wall time to encode one checkpoint stream", trace.DurationBuckets())
}

// NewEncoder returns an encoder. contentAware enables the zero/delta/
// raw encoding choice; false frames every page verbatim — the
// uncompressed baseline whose measured wire size matches what an
// unencoded stream would carry.
func NewEncoder(contentAware bool) *Encoder {
	return &Encoder{contentAware: contentAware}
}

// ContentAware reports whether content-aware encoding is enabled.
func (e *Encoder) ContentAware() bool { return e.contentAware }

// Checkpoint is one encoded checkpoint stream.
type Checkpoint struct {
	// Seq is the checkpoint sequence number sealed in the commit frame.
	Seq uint64
	// Stream is the framed stream the decoder consumes.
	Stream []byte
	// WireSize is the modeled on-link size in bytes. It equals
	// len(Stream) except in raw mode, where zero-run frames stand for
	// the literal zero pages a real uncompressed stream would carry
	// and are charged at PageSize per page.
	WireSize int64
	// Stats is the encode measurement (WireSize = Stats.EncodedBytes).
	Stats Stats
}

// mode is how an encode frames pages.
type mode uint8

const (
	// modeRaw frames every populated page verbatim and every
	// unpopulated one in a zero run, charged at PageSize.
	modeRaw mode = iota
	// modeDelta is content-aware: zero run, XOR+RLE delta against the
	// baseline, or raw — each page at most once.
	modeDelta
	// modeOverwrite frames zero runs and raw pages by content, each
	// page at most once, in page-list order on one shard.
	modeOverwrite
)

// Encode frames one checkpoint: the given pages read from src, the
// translated machine state record, and the journaled disk writes.
// Page encoding is sharded across `shards` workers by 2 MiB region,
// round-robin, mirroring the transfer threads. The VM is paused during
// checkpoints, so src is stable for the duration of the call.
//
// In content-aware mode base is the delta baseline: the replica
// mirror holding the last acknowledged epoch (nil stands for an
// all-zero replica). Raw mode ignores it.
func (e *Encoder) Encode(src, base *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64, shards int) (*Checkpoint, error) {
	m := modeRaw
	if e.contentAware {
		m = modeDelta
	}
	return e.encode(m, src, base, pages, state, disk, seq, shards)
}

// EncodeOverwrite frames one checkpoint as overwrite-only content —
// zero-run and raw frames, never deltas — regardless of the encoder's
// mode. This is the remote-ahead resync stream: after a lost
// acknowledgement the replica may hold an epoch the local mirror does
// not describe (it applied a checkpoint whose ack never arrived), so
// XOR deltas computed against the mirror would corrupt it. Overwrite
// frames are correct against any replica content.
func (e *Encoder) EncodeOverwrite(src *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64) (*Checkpoint, error) {
	return e.encode(modeOverwrite, src, nil, pages, state, disk, seq, 1)
}

// Frame sizes the encoder presizes its output with.
const (
	rawFrameSize  = frameOverhead + 8 + memory.PageSize
	zeroFrameSize = frameOverhead + 12
	diskFrameSize = frameOverhead + 8 + SectorSize
)

func (e *Encoder) encode(m mode, src, base *memory.GuestMemory, pages []memory.PageNum,
	state []byte, disk []DiskWrite, seq uint64, shards int) (*Checkpoint, error) {

	start := time.Now()
	if src == nil {
		return nil, fmt.Errorf("wire: encode: nil memory")
	}
	if shards < 1 {
		shards = 1
	}
	ascending := true
	lone := 0 // the one shard with pages, or -1 when several have some
	for i, p := range pages {
		if p >= src.NumPages() {
			return nil, fmt.Errorf("wire: encode: page %d beyond memory (%d pages)",
				p, src.NumPages())
		}
		if i > 0 && p <= pages[i-1] {
			ascending = false
		}
		if s := memory.RegionOf(p) % shards; i == 0 {
			lone = s
		} else if s != lone {
			lone = -1
		}
	}
	for _, w := range disk {
		if len(w.Data) != SectorSize {
			return nil, fmt.Errorf("wire: encode: disk write of %d bytes", len(w.Data))
		}
	}
	if m == modeRaw {
		base = nil
	}
	// A page encodes at most once per checkpoint in the content modes.
	// An ascending page list (every dirty-log snapshot) has no
	// duplicates; anything else is checked against a page bitmap.
	// Shards own whole regions, and a region spans whole bitmap words,
	// so the shards never share a word.
	var seen []uint64
	if m != modeRaw && !ascending {
		seen = make([]uint64, (src.NumPages()+63)/64)
	}
	tail := len(disk) * diskFrameSize
	if state != nil {
		tail += frameOverhead + len(state)
	}
	tail += frameOverhead + commitPayloadSize

	out := make([]shardOut, shards)
	var stream []byte
	src.ReadPages(func(sr memory.PageReader) {
		if m == modeRaw {
			// Raw-mode frame sizes follow from which pages are
			// populated, so every shard writes straight into its exact
			// slot of the stream.
			sizes := rawShardSizes(sr, pages, shards)
			size := headerSize + tail
			for _, n := range sizes {
				size += n
			}
			stream = appendHeader(make([]byte, 0, size))
			off := len(stream)
			for s, n := range sizes {
				out[s].w.buf = stream[off:off:(off + n)]
				off += n
			}
			stream = stream[:off]
		}
		withReader(base, src, sr, func(br memory.PageReader) {
			if lone >= 0 {
				// Small and idle checkpoints start no workers.
				out[lone].encode(m, sr, br, pages, lone, shards, seen)
				return
			}
			var wg sync.WaitGroup
			for s := 1; s < shards; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					out[s].encode(m, sr, br, pages, s, shards, seen)
				}(s)
			}
			out[0].encode(m, sr, br, pages, 0, shards, seen)
			wg.Wait()
		})
	})

	var stats Stats
	var holePages int64
	for s := range out {
		stats.Add(out[s].stats)
		holePages += out[s].hole
	}
	if m == modeRaw {
		for s := range out {
			if w := out[s].w.buf; len(w) != cap(w) {
				panic("wire: raw shard overran its presized slot")
			}
		}
	} else {
		size := headerSize + tail
		for s := range out {
			size += out[s].w.size()
		}
		stream = appendHeader(make([]byte, 0, size))
		for s := range out {
			stream = out[s].w.drainTo(stream)
		}
	}

	w := frameWriter{buf: stream}
	for _, d := range disk {
		at := w.begin(frameDisk)
		w.buf = binary.LittleEndian.AppendUint64(w.buf, d.Sector)
		w.buf = append(w.buf, d.Data...)
		w.end(at)
		stats.DiskFrames++
	}
	if state != nil {
		at := w.begin(frameState)
		w.buf = append(w.buf, state...)
		w.end(at)
		stats.StateFrames++
	}
	at := w.begin(frameCommit)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, seq)
	w.buf = binary.LittleEndian.AppendUint64(w.buf,
		uint64(stats.ZeroPages)+uint64(stats.DeltaFrames)+uint64(stats.RawFrames))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(stats.DiskFrames))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(stats.StateFrames))
	w.end(at)
	stream = w.buf

	framed := int64(len(pages))
	if m == modeOverwrite {
		framed = stats.ZeroPages + stats.RawFrames // duplicates excluded
	}
	stats.RawBytes = framed*memory.PageSize + int64(len(state)) +
		int64(len(disk))*SectorSize
	stats.EncodedBytes = int64(len(stream)) + holePages*memory.PageSize
	stats.EncodeTime = time.Since(start)
	e.observe(stats)
	return &Checkpoint{Seq: seq, Stream: stream, WireSize: stats.EncodedBytes, Stats: stats}, nil
}

// observe feeds one encode's measurement to the registry instruments.
func (e *Encoder) observe(stats Stats) {
	e.mu.Lock()
	rawB, encB, zeroP, deltaF, rawF, sec :=
		e.rawBytesC, e.encodedBytesC, e.zeroPagesC, e.deltaFramesC, e.rawFramesC, e.encodeSec
	e.mu.Unlock()
	if rawB == nil {
		return
	}
	rawB.Add(stats.RawBytes)
	encB.Add(stats.EncodedBytes)
	zeroP.Add(stats.ZeroPages)
	deltaF.Add(stats.DeltaFrames)
	rawF.Add(stats.RawFrames)
	sec.Observe(stats.EncodeTime.Seconds())
}

// withReader runs fn with a reader over base: the zero reader for a nil
// base, and the caller's own reader when base is src, whose read lock
// is already held.
func withReader(base, src *memory.GuestMemory, sr memory.PageReader, fn func(memory.PageReader)) {
	switch base {
	case nil:
		fn(memory.PageReader{})
	case src:
		fn(sr)
	default:
		base.ReadPages(fn)
	}
}

// inShard reports whether page p belongs to shard s of n: pages of
// 2 MiB region k go to shard k mod n, as the transfer threads split
// them.
func inShard(p memory.PageNum, s, n int) bool {
	return n == 1 || memory.RegionOf(p)%n == s
}

// rawShardSizes is each shard's exact raw-mode output size: one raw
// frame per populated page, one zero-run frame per run of consecutive
// unpopulated pages.
func rawShardSizes(sr memory.PageReader, pages []memory.PageNum, shards int) []int {
	sizes := make([]int, shards)
	next := make([]memory.PageNum, shards) // page extending the open zero run; 0 = none open
	for _, p := range pages {
		s := memory.RegionOf(p) % shards
		if sr.Page(p) != nil {
			sizes[s] += rawFrameSize
			next[s] = 0
			continue
		}
		if next[s] == 0 || p != next[s] {
			sizes[s] += zeroFrameSize
		}
		next[s] = p + 1
	}
	return sizes
}

// shardOut is one encode worker's output.
type shardOut struct {
	w     frameWriter
	stats Stats
	hole  int64 // raw mode: zero pages charged at PageSize
}

// encode frames shard s's share of pages in page-list order, so
// consecutive zero pages still coalesce into runs.
func (o *shardOut) encode(m mode, sr, br memory.PageReader, pages []memory.PageNum,
	s, shards int, seen []uint64) {

	var (
		residual [memory.PageSize]byte
		runStart memory.PageNum
		runLen   uint32
	)
	flushRun := func() {
		if runLen == 0 {
			return
		}
		at := o.w.begin(frameZeroRun)
		o.w.buf = binary.LittleEndian.AppendUint64(o.w.buf, uint64(runStart))
		o.w.buf = binary.LittleEndian.AppendUint32(o.w.buf, runLen)
		o.w.end(at)
		o.stats.ZeroFrames++
		o.stats.ZeroPages += int64(runLen)
		if m == modeRaw {
			// Raw mode ships the literal zeros; charge them.
			o.hole += int64(runLen)
		}
		runLen = 0
	}

	for _, p := range pages {
		if !inShard(p, s, shards) {
			continue
		}
		if seen != nil {
			word, bit := p/64, uint64(1)<<(p%64)
			if seen[word]&bit != 0 {
				continue
			}
			seen[word] |= bit
		}
		cur := sr.Page(p)
		if cur != nil && m != modeRaw && memory.AllZero(cur) {
			cur = nil // populated but re-zeroed byte-wise
		}
		if cur == nil {
			if runLen > 0 && p == runStart+memory.PageNum(runLen) {
				runLen++
			} else {
				flushRun()
				runStart, runLen = p, 1
			}
			continue
		}
		flushRun()
		if m == modeDelta {
			// XOR against the acked image (an unpopulated baseline page
			// is an implicit zero page, so first-time sparse content
			// still deltas well) and fall back to raw when the residual
			// does not pay.
			res := cur
			if b := br.Page(p); b != nil {
				subtle.XORBytes(residual[:], cur, b)
				res = residual[:]
			}
			at := o.w.begin(frameDelta)
			o.w.buf = binary.LittleEndian.AppendUint64(o.w.buf, uint64(p))
			var ok bool
			if o.w.buf, ok = rleEncode(o.w.buf, res); ok {
				o.w.end(at)
				o.stats.DeltaFrames++
				continue
			}
			o.w.buf = o.w.buf[:at]
		}
		at := o.w.begin(frameRaw)
		o.w.buf = binary.LittleEndian.AppendUint64(o.w.buf, uint64(p))
		o.w.buf = append(o.w.buf, cur...)
		o.w.end(at)
		o.stats.RawFrames++
	}
	flushRun()
}

// chunkSize is the pooled frame-buffer chunk: large enough that a
// checkpoint's shard rarely needs more than a few, small enough that
// an idle pool holds little.
const chunkSize = 256 << 10

var chunkPool = sync.Pool{New: func() any { return new([chunkSize]byte) }}

// frameWriter appends frames to presized storage, so no buffer ever
// grows by doubling. A raw-mode shard writes into its exact slot of
// the stream; the content-dependent modes cannot size their output
// up front and fill pooled fixed-size chunks instead, which drainTo
// copies into the stream once every shard's size is known.
type frameWriter struct {
	buf    []byte
	chunks [][]byte // filled chunks, before buf
	pooled bool     // buf is a pooled chunk
}

// begin opens a frame of type typ, reserving room for the largest
// frame a page can produce, and returns its offset for end.
func (w *frameWriter) begin(typ byte) int {
	if w.buf == nil || (w.pooled && cap(w.buf)-len(w.buf) < rawFrameSize) {
		// Only chunked writers get here: a presized slot is never nil.
		if w.pooled {
			w.chunks = append(w.chunks, w.buf)
		}
		w.buf = chunkPool.Get().(*[chunkSize]byte)[:0]
		w.pooled = true
	}
	at := len(w.buf)
	w.buf = append(w.buf, typ, 0, 0, 0, 0, 0, 0, 0, 0)
	return at
}

// end seals the frame opened at at: payload length and CRC32.
func (w *frameWriter) end(at int) {
	payload := w.buf[at+frameOverhead:]
	binary.LittleEndian.PutUint32(w.buf[at+1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[at+5:], crc32.ChecksumIEEE(payload))
}

// size reports the bytes written so far.
func (w *frameWriter) size() int {
	n := len(w.buf)
	for _, c := range w.chunks {
		n += len(c)
	}
	return n
}

// drainTo appends the chunked output to dst and returns every chunk to
// the pool.
func (w *frameWriter) drainTo(dst []byte) []byte {
	for _, c := range w.chunks {
		dst = append(dst, c...)
		chunkPool.Put((*[chunkSize]byte)(c[:chunkSize]))
	}
	if w.pooled {
		dst = append(dst, w.buf...)
		chunkPool.Put((*[chunkSize]byte)(w.buf[:chunkSize]))
	}
	*w = frameWriter{}
	return dst
}

package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"github.com/here-ft/here/internal/memory"
)

// Result is what a decoded checkpoint stream contained.
type Result struct {
	// Seq is the checkpoint sequence number from the commit frame.
	Seq uint64
	// State is the translated machine state record, nil if the stream
	// carried none.
	State []byte
	// Disk is the journaled disk writes in stream (= apply) order.
	Disk []DiskWrite
	// Pages is the number of pages applied, zero-runs expanded.
	Pages int64
	// Stats counts the decoded frame mix (EncodeTime is zero).
	Stats Stats
}

// Decode validates a checkpoint stream and applies it into dst, the
// replica's guest memory. Validation — magic, version, every frame's
// CRC32, structural bounds, delta well-formedness, the commit frame's
// cross-checked counts — completes over the whole stream before the
// first page is written, so a rejected stream never leaves dst
// half-updated. What the replica holds afterwards is exactly what was
// decoded from the wire.
func Decode(stream []byte, dst *memory.GuestMemory) (*Result, error) {
	if dst == nil {
		return nil, fmt.Errorf("wire: decode: nil destination memory")
	}
	if len(stream) < headerSize {
		return nil, fmt.Errorf("%w: %d-byte stream", ErrTruncated, len(stream))
	}
	if string(stream[:8]) != string(magic[:]) {
		return nil, ErrMagic
	}
	if v := binary.LittleEndian.Uint16(stream[8:10]); v != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, v)
	}

	// Pass 1: structural validation, no side effects.
	res := &Result{}
	var pages int64
	committed := false
	off := headerSize
	for off < len(stream) {
		if committed {
			return nil, fmt.Errorf("%w: data after commit frame", ErrCommit)
		}
		if len(stream)-off < frameOverhead {
			return nil, fmt.Errorf("%w: frame header at %d", ErrTruncated, off)
		}
		typ := stream[off]
		plen := int(binary.LittleEndian.Uint32(stream[off+1 : off+5]))
		sum := binary.LittleEndian.Uint32(stream[off+5 : off+9])
		if plen > maxFramePayload {
			return nil, fmt.Errorf("%w: %d-byte payload", ErrFrameSize, plen)
		}
		if len(stream)-off-frameOverhead < plen {
			return nil, fmt.Errorf("%w: frame payload at %d", ErrTruncated, off)
		}
		payload := stream[off+frameOverhead : off+frameOverhead+plen]
		if crc32.ChecksumIEEE(payload) != sum {
			return nil, fmt.Errorf("%w: frame at %d", ErrChecksum, off)
		}
		off += frameOverhead + plen

		switch typ {
		case frameZeroRun:
			if plen != 12 {
				return nil, fmt.Errorf("%w: zero-run payload %d bytes", ErrFrameSize, plen)
			}
			first := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			count := binary.LittleEndian.Uint32(payload[8:12])
			if count == 0 {
				return nil, fmt.Errorf("%w: empty zero run", ErrFrameSize)
			}
			// Guard the sum against wrap-around: compare count to the
			// space left above first, never first+count to the limit.
			if first >= dst.NumPages() ||
				uint64(count) > uint64(dst.NumPages()-first) {
				return nil, fmt.Errorf("%w: zero run %d+%d", ErrPageRange, first, count)
			}
			pages += int64(count)
			res.Stats.ZeroFrames++
			res.Stats.ZeroPages += int64(count)
		case frameDelta:
			if plen < 8 {
				return nil, fmt.Errorf("%w: delta payload %d bytes", ErrFrameSize, plen)
			}
			p := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			if p >= dst.NumPages() {
				return nil, fmt.Errorf("%w: page %d", ErrPageRange, p)
			}
			if err := rleValidate(payload[8:]); err != nil {
				return nil, err
			}
			pages++
			res.Stats.DeltaFrames++
		case frameRaw:
			if plen != 8+memory.PageSize {
				return nil, fmt.Errorf("%w: raw payload %d bytes", ErrFrameSize, plen)
			}
			p := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
			if p >= dst.NumPages() {
				return nil, fmt.Errorf("%w: page %d", ErrPageRange, p)
			}
			pages++
			res.Stats.RawFrames++
		case frameState:
			res.Stats.StateFrames++
			if res.Stats.StateFrames > 1 {
				return nil, fmt.Errorf("%w: multiple state frames", ErrFrameSize)
			}
		case frameDisk:
			if plen != 8+SectorSize {
				return nil, fmt.Errorf("%w: disk payload %d bytes", ErrFrameSize, plen)
			}
			res.Stats.DiskFrames++
		case frameCommit:
			if plen != commitPayloadSize {
				return nil, fmt.Errorf("%w: commit payload %d bytes", ErrFrameSize, plen)
			}
			res.Seq = binary.LittleEndian.Uint64(payload[:8])
			wantPages := binary.LittleEndian.Uint64(payload[8:16])
			wantDisk := binary.LittleEndian.Uint32(payload[16:20])
			wantState := binary.LittleEndian.Uint32(payload[20:24])
			if uint64(pages) != wantPages ||
				uint32(res.Stats.DiskFrames) != wantDisk ||
				uint32(res.Stats.StateFrames) != wantState {
				return nil, fmt.Errorf("%w: frame counts disagree", ErrCommit)
			}
			committed = true
		default:
			return nil, fmt.Errorf("%w: 0x%02x at %d", ErrFrameType, typ, off)
		}
	}
	if !committed {
		return nil, fmt.Errorf("%w: stream not sealed", ErrCommit)
	}

	// Pass 2: apply, straight into the destination pages under one
	// lock. Every frame was validated above, so the walk re-reads
	// headers without checks.
	dst.WritePages(func(w memory.PageWriter) {
		for off := headerSize; off < len(stream); {
			typ := stream[off]
			plen := int(binary.LittleEndian.Uint32(stream[off+1 : off+5]))
			payload := stream[off+frameOverhead : off+frameOverhead+plen]
			off += frameOverhead + plen
			switch typ {
			case frameZeroRun:
				first := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
				count := binary.LittleEndian.Uint32(payload[8:12])
				for i := uint32(0); i < count; i++ {
					w.Clear(first + memory.PageNum(i))
				}
			case frameDelta:
				p := memory.PageNum(binary.LittleEndian.Uint64(payload[:8]))
				w.Update(p, func(page []byte) { rleApply(page, payload[8:]) })
			case frameRaw:
				w.Store(memory.PageNum(binary.LittleEndian.Uint64(payload[:8])), payload[8:])
			case frameState:
				res.State = append([]byte(nil), payload...)
			case frameDisk:
				res.Disk = append(res.Disk, DiskWrite{
					Sector: binary.LittleEndian.Uint64(payload[:8]),
					Data:   append([]byte(nil), payload[8:]...),
				})
			}
		}
	})
	res.Pages = pages
	res.Stats.EncodedBytes = int64(len(stream))
	return res, nil
}

package wire

import (
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/here-ft/here/internal/memory"
)

// The delta frame's payload (after the page number) is the XOR
// residual new⊕base run-length encoded as a sequence of
//
//	uvarint zeroRun | uvarint litLen | litLen literal bytes
//
// pairs. A checkpointed page usually differs from its previous epoch
// in a few cache lines, so the residual is almost entirely zero and
// the pairs collapse it to a handful of bytes. Residual bytes past the
// last pair are an implicit zero run.

// rleGapThreshold is the zero-run length worth breaking a literal for:
// each new pair costs ~2 varint bytes, so shorter gaps are cheaper to
// carry verbatim inside the literal.
const rleGapThreshold = 4

// rleEncode appends the run-length encoding of residual to dst and
// returns it. residual must be PageSize long. It gives up, returning
// false, once the encoding would reach PageSize bytes: from there a
// raw frame is no larger, so the page ships verbatim.
//
// Both scans move a uint64 word at a time: zero runs skip whole zero
// words, and literals skip words with no zero byte, since only a run
// of rleGapThreshold zeros can end a literal.
func rleEncode(dst, residual []byte) ([]byte, bool) {
	n := len(residual)
	room := memory.PageSize // encoded bytes left before raw wins
	i := 0
	for i < n {
		run := nextNonZero(residual, i)
		if run == n {
			break // trailing zeros are implicit
		}
		// Extend the literal until rleGapThreshold consecutive zeros
		// (or the end of the page) make a new pair worthwhile.
		lit := run
		zeros := 0
		end := lit
		for end < n {
			if zeros == 0 && end+8 <= n && !hasZeroByte(binary.LittleEndian.Uint64(residual[end:])) {
				end += 8
				continue
			}
			if residual[end] == 0 {
				zeros++
				if zeros >= rleGapThreshold {
					end -= zeros - 1
					break
				}
			} else {
				zeros = 0
			}
			end++
		}
		var pair [2 * binary.MaxVarintLen64]byte
		hdr := binary.AppendUvarint(pair[:0], uint64(run-i))
		hdr = binary.AppendUvarint(hdr, uint64(end-lit))
		if room -= len(hdr) + end - lit; room <= 0 {
			return dst, false
		}
		dst = append(append(dst, hdr...), residual[lit:end]...)
		i = end
	}
	return dst, true
}

// nextNonZero returns the index of the first non-zero byte of b at or
// after i, or len(b) if there is none.
func nextNonZero(b []byte, i int) int {
	for ; i+8 <= len(b); i += 8 {
		if w := binary.LittleEndian.Uint64(b[i:]); w != 0 {
			return i + bits.TrailingZeros64(w)/8
		}
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	return i
}

// hasZeroByte reports whether any of w's eight bytes is zero.
func hasZeroByte(w uint64) bool {
	const lo, hi = 0x0101010101010101, 0x8080808080808080
	return (w-lo)&^w&hi != 0
}

// rleValidate structurally checks an RLE byte string without touching
// any destination: every pair must parse and the decoded span must fit
// in one page.
func rleValidate(rle []byte) error {
	cursor := 0
	off := 0
	for off < len(rle) {
		zrun, n := binary.Uvarint(rle[off:])
		if n <= 0 {
			return fmt.Errorf("%w: bad zero-run varint at %d", ErrDelta, off)
		}
		off += n
		lit, n := binary.Uvarint(rle[off:])
		if n <= 0 {
			return fmt.Errorf("%w: bad literal varint at %d", ErrDelta, off)
		}
		off += n
		if zrun > memory.PageSize || lit > memory.PageSize {
			return fmt.Errorf("%w: oversized run", ErrDelta)
		}
		cursor += int(zrun) + int(lit)
		if cursor > memory.PageSize {
			return fmt.Errorf("%w: spans past page end", ErrDelta)
		}
		if off+int(lit) > len(rle) {
			return fmt.Errorf("%w: literal truncated", ErrDelta)
		}
		off += int(lit)
	}
	return nil
}

// rleApply XORs the residual encoded in rle into page (new = old ⊕
// residual). page must be PageSize long and rle must have passed
// rleValidate.
func rleApply(page, rle []byte) {
	cursor := 0
	off := 0
	for off < len(rle) {
		zrun, n := binary.Uvarint(rle[off:])
		off += n
		lit, n := binary.Uvarint(rle[off:])
		off += n
		cursor += int(zrun)
		subtle.XORBytes(page[cursor:cursor+int(lit)], page[cursor:cursor+int(lit)], rle[off:off+int(lit)])
		cursor += int(lit)
		off += int(lit)
	}
}

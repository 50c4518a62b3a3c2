package transport

import (
	"bytes"
	"testing"
	"time"
)

// The transport's message decoders parse bytes straight off the
// network. Each fuzz target checks that a decoder never panics and
// that whatever it accepts re-encodes to exactly the input, so no two
// payloads decode to the same message.

func FuzzDecodeAck(f *testing.F) {
	f.Add(encodeAck(7, 0xfeed, ackStages{Recv: time.Millisecond, Decode: 2, Apply: 3, Ack: 4}))
	f.Add(encodeAck(0, 0, ackStages{}))
	f.Add(u64payload(7)) // the retired 8-byte ack
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		seq, spanID, st, err := decodeAck(b)
		if err != nil {
			return
		}
		if got := encodeAck(seq, spanID, st); !bytes.Equal(got, b) {
			t.Fatalf("ack %x re-encodes as %x", b, got)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(hello{Version: ProtocolVersion, WireVersion: wireVersion,
		Generation: 3, MemBytes: 1 << 20, AckedSeq: 9, TraceID: 42, Protection: "vm0"}))
	f.Add(encodeHello(hello{Protection: "x"}))
	f.Add(encodeHello(hello{}))
	f.Add(helloMagic[:])
	f.Fuzz(func(t *testing.T, b []byte) {
		h, err := decodeHello(b)
		if err != nil {
			return
		}
		if h.Protection == "" {
			t.Fatal("accepted a hello without a protection name")
		}
		if got := encodeHello(h); !bytes.Equal(got, b) {
			t.Fatalf("hello %x re-encodes as %x", b, got)
		}
	})
}

func FuzzDecodeWelcome(f *testing.F) {
	f.Add(encodeWelcome(welcome{Version: ProtocolVersion, Generation: 5, AckedSeq: 11}))
	f.Add(encodeWelcome(welcome{}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := decodeWelcome(b)
		if err != nil {
			return
		}
		if got := encodeWelcome(w); !bytes.Equal(got, b) {
			t.Fatalf("welcome %x re-encodes as %x", b, got)
		}
	})
}

func FuzzDecodeStream(f *testing.F) {
	ctx := encodeStreamCtx(streamCtx{Seq: 4, Gen: 2, SpanID: 99})
	f.Add(append(append([]byte(nil), ctx...), "HEREWIRE\x01\x00"...))
	f.Add(ctx)
	f.Add(ctx[:23])
	f.Fuzz(func(t *testing.T, b []byte) {
		ctx, stream, err := decodeStream(b)
		if err != nil {
			return
		}
		if got := append(encodeStreamCtx(ctx), stream...); !bytes.Equal(got, b) {
			t.Fatalf("stream payload %x re-encodes as %x", b, got)
		}
	})
}

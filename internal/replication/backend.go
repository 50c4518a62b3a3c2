package replication

import (
	"errors"
	"fmt"
	"time"

	"github.com/here-ft/here/internal/memory"
	"github.com/here-ft/here/internal/migration"
	"github.com/here-ft/here/internal/trace"
	"github.com/here-ft/here/internal/wire"
)

// backend is how one leg's traffic reaches its replica. pickBackend
// chooses it once per leg, so the checkpoint loop, the resync
// reconciliation and seeding never branch on the transport kind.
type backend interface {
	Transport
	// SendRound carries one seeding round (migration's face).
	migration.Transport
	// ship carries one checkpoint stream and returns once the replica
	// acknowledged it, recording the transfer spans under the leg's
	// index. A failed ship leaves the replica on its last acknowledged
	// epoch as far as the primary is concerned.
	ship(r *Replicator, leg int, cp *wire.Checkpoint, dirty []memory.PageNum) error
	// reconcile reports, before the resync that ships epoch next,
	// whether the replica needs overwrite frames instead of deltas — or
	// ErrReplicaDiverged when it holds nothing a resync can build on.
	reconcile(next uint64) (overwrite bool, err error)
	// seedCopy charges a full copy of bytes that seedLeg applies to the
	// leg's replica memory in-process.
	seedCopy(bytes int64, streams int) error
}

// pickBackend is the one place a leg's transport kind is decided. A
// CheckpointSender wins over a ModeledLink, so a real transport that
// also models transfers still ships its streams.
func pickBackend(tp Transport) (backend, error) {
	switch t := tp.(type) {
	case CheckpointSender:
		return network{t}, nil
	case ModeledLink:
		return modeled{t}, nil
	}
	return nil, fmt.Errorf("replication: transport %T is neither a ModeledLink nor a CheckpointSender", tp)
}

// modeled carries a leg over a link that only models moving bytes: the
// stream is charged by its wire size and the ack as a separate 64 B
// transfer, both on the virtual clock and retried per the replicator's
// policy. The stream is decoded into the leg's replica memory, which is
// the replica, so it is always in sync.
type modeled struct{ ModeledLink }

func (m modeled) ship(r *Replicator, leg int, cp *wire.Checkpoint, dirty []memory.PageNum) error {
	streams := r.threads
	if regions := dirtyRegions(dirty); regions > 0 && regions < streams {
		// Region sharding bounds the transfer parallelism: fewer dirtied
		// 2 MiB regions than threads leaves threads idle.
		streams = regions
	}
	if err := r.shipVia(m.ModeledLink, trace.SpanTransfer, leg, int64(cp.Seq), cp.WireSize, streams); err != nil {
		return err
	}
	// The replica may hold the checkpoint data, but without the
	// acknowledgement the primary must treat it as never applied.
	return r.shipVia(m.ModeledLink, trace.SpanAck, leg, int64(cp.Seq), ackBytes, 1)
}

func (m modeled) SendRound(_ uint64, cp *wire.Checkpoint, streams int) error {
	return m.seedCopy(cp.WireSize, streams)
}

func (m modeled) seedCopy(bytes int64, streams int) error {
	_, err := m.Transfer(bytes, streams)
	return err
}

func (modeled) reconcile(uint64) (bool, error) { return false, nil }

// network carries a leg over a real peer: the stream itself crosses the
// wire and the call's return is the remote replica's acknowledgement.
type network struct{ CheckpointSender }

// ship sends the stream once. After an ambiguous failure the peer may
// or may not have applied the epoch, and re-sending delta frames onto
// an already-advanced replica would corrupt it; the degraded →
// reconnect → resync ladder reconciles acked epochs instead.
//
// The transfer span is measured on the wall clock: real TCP waits do
// not advance the virtual clock. The secondary's stage timings the ack
// carried are wall-clock too and are merged after it as remote-* spans,
// so EpochBreakdown's cross-node view (wire transit = transfer minus
// these stages) lives in one time base.
func (n network) ship(r *Replicator, _ int, cp *wire.Checkpoint, _ []memory.PageNum) error {
	start, wallStart := r.src.Clock().Now(), time.Now()
	err := n.SendCheckpoint(cp.Seq, cp.Stream)
	ev := trace.Event{
		Kind: trace.SpanTransfer, Epoch: int64(cp.Seq), Start: start,
		Dur: time.Since(wallStart), Engine: r.cfg.Engine.String(), Bytes: cp.WireSize,
	}
	if err != nil {
		ev.Outcome = "failed"
	}
	r.tr.Record(ev)
	if err != nil || !r.tr.Enabled() {
		return err
	}
	if recv, dec, app, ack, ok := n.LastRemoteStages(); ok {
		kinds := [...]trace.Kind{trace.SpanRemoteRecv, trace.SpanRemoteDecode, trace.SpanRemoteApply, trace.SpanRemoteAck}
		for i, d := range [...]time.Duration{recv, dec, app, ack} {
			r.tr.Record(trace.Event{Kind: kinds[i], Epoch: ev.Epoch, Start: start, Dur: d, Engine: ev.Engine})
		}
	}
	return nil
}

// reconcile compares the epoch the peer's last re-handshake reported
// with the one the leg's replica memory describes.
func (n network) reconcile(next uint64) (bool, error) {
	switch acked, ok := n.PeerAcked(); {
	case ok && acked+1 == next:
		// In sync: plain delta resync.
		return false, nil
	case ok && acked == next:
		// The peer applied the checkpoint whose acknowledgement was lost:
		// it is one epoch ahead of the leg's replica memory, so XOR deltas
		// would corrupt it. Overwrite frames bring both back in step.
		return true, nil
	case ok:
		return false, fmt.Errorf("%w (next epoch %d, peer acked %d)", ErrReplicaDiverged, next, acked)
	}
	// The peer restarted empty: nothing a delta can build on.
	return false, fmt.Errorf("%w (next epoch %d, peer holds none)", ErrReplicaDiverged, next)
}

func (n network) SendRound(round uint64, cp *wire.Checkpoint, _ int) error {
	return n.SendSeed(round, cp.Stream)
}

// seedCopy refuses: NewChain and AddLeg keep a network leg alone in its
// chain, and only further legs are seeded by copy.
func (network) seedCopy(int64, int) error {
	return errors.New("replication: no copy seed over a network leg")
}

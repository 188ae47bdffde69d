package core

import (
	"slices"

	"spire/internal/model"
)

// Ingest hardening. The substrate requires strictly increasing epochs —
// real reader feeds deliver worse: duplicated batches, bursts arriving
// out of order, and epoch gaps after dropouts. The ingest gate sits
// between the input channel and ProcessBatch and applies one of
// three policies instead of letting malformed input corrupt graph state.

// IngestPolicy selects how the runner treats malformed input ordering.
type IngestPolicy int

const (
	// IngestStrict passes batches through untouched; a non-monotone
	// epoch surfaces as a processing error, failing the run. This is the
	// historical behavior and the zero value.
	IngestStrict IngestPolicy = iota

	// IngestReject drops batches whose epoch is not after the last
	// processed epoch (duplicates and late arrivals) and processes
	// everything else immediately. Gaps pass through — a missing epoch is
	// legal input to the substrate.
	IngestReject

	// IngestRepair buffers batches in a reorder window, delivers them in
	// epoch order, and merges duplicate batches of the same epoch (union
	// of readings per reader). Only batches arriving later than the
	// window allows are dropped.
	IngestRepair
)

// String names the policy.
func (p IngestPolicy) String() string {
	switch p {
	case IngestReject:
		return "reject"
	case IngestRepair:
		return "repair"
	default:
		return "strict"
	}
}

// ParseIngestPolicy maps a flag value to a policy.
func ParseIngestPolicy(s string) (IngestPolicy, bool) {
	switch s {
	case "strict", "":
		return IngestStrict, true
	case "reject":
		return IngestReject, true
	case "repair":
		return IngestRepair, true
	}
	return IngestStrict, false
}

// reorderWindow is how many epochs behind the newest seen epoch a batch
// may arrive and still be repaired into order (repair policy only).
const reorderWindow = 8

// IngestConfig parameterizes the gate.
type IngestConfig struct {
	Policy IngestPolicy
}

// IngestStats counts the gate's decisions.
type IngestStats struct {
	Accepted  int64 // batches delivered to the substrate
	Stale     int64 // dropped: epoch at or before the last delivered epoch
	Merged    int64 // duplicate-epoch batches merged into a buffered one
	Reordered int64 // buffered batches delivered out of arrival order
}

// ingestGate applies an IngestConfig to a batch stream. Offer returns
// the batches now ready for processing, in epoch order;
// Drain flushes the reorder buffer at end of input.
type ingestGate struct {
	cfg    IngestConfig
	window model.Epoch // reorder depth; reorderWindow outside tests
	last   model.Epoch // last epoch handed out (or processed before restore)
	seen   model.Epoch // newest epoch ever offered (repair)
	buf    map[model.Epoch]*model.Batch
	arr    map[model.Epoch]int // arrival sequence of buffered epochs
	seq    int
	stats  IngestStats

	// Reused per-call scratch: the flush work lists, the merge's copy of
	// the buffered batch, and the merge dedup set. Offer/Drain return
	// out, so the returned slice is only valid until the next call
	// (documented on Offer).
	ready   []model.Epoch
	out     []*model.Batch
	old     model.Batch
	dupTags map[model.Tag]bool
}

func newIngestGate(cfg IngestConfig, last model.Epoch) *ingestGate {
	return &ingestGate{
		cfg:    cfg,
		window: reorderWindow,
		last:   last,
		seen:   model.EpochNone,
		buf:    make(map[model.Epoch]*model.Batch),
		arr:    make(map[model.Epoch]int),
	}
}

// Offer accepts one batch and returns those ready for processing. The
// returned slice is valid until the next call.
func (g *ingestGate) Offer(b *model.Batch) []*model.Batch {
	switch g.cfg.Policy {
	case IngestReject:
		if b.Time <= g.last {
			g.stats.Stale++
			return nil
		}
		g.last = b.Time
		g.stats.Accepted++
		g.out = append(g.out[:0], b)
		return g.out
	case IngestRepair:
		return g.offerRepair(b)
	default: // IngestStrict: hands-off
		g.last = b.Time
		g.stats.Accepted++
		g.out = append(g.out[:0], b)
		return g.out
	}
}

func (g *ingestGate) offerRepair(b *model.Batch) []*model.Batch {
	g.seq++
	if b.Time <= g.last {
		// Arrived after its epoch was already delivered (or processed
		// before a restore): beyond repair.
		g.stats.Stale++
		return nil
	}
	if have, dup := g.buf[b.Time]; dup {
		g.merge(have, b)
		g.stats.Merged++
	} else {
		g.buf[b.Time] = b
		g.arr[b.Time] = g.seq
	}
	if b.Time > g.seen {
		g.seen = b.Time
	}
	// Deliver every buffered epoch old enough that nothing earlier can
	// still arrive within the window.
	return g.flushThrough(g.seen - g.window)
}

// flushThrough delivers buffered epochs <= limit in epoch order.
func (g *ingestGate) flushThrough(limit model.Epoch) []*model.Batch {
	if len(g.buf) == 0 {
		return nil
	}
	ready := g.ready[:0]
	for t := range g.buf {
		if t <= limit {
			ready = append(ready, t)
		}
	}
	g.ready = ready
	if len(ready) == 0 {
		return nil
	}
	slices.Sort(ready)
	out := g.out[:0]
	lastSeq := 0
	for _, t := range ready {
		o := g.buf[t]
		if g.arr[t] < lastSeq {
			g.stats.Reordered++
		}
		lastSeq = g.arr[t]
		delete(g.buf, t)
		delete(g.arr, t)
		out = append(out, o)
		g.last = t
		g.stats.Accepted++
	}
	g.out = out
	return out
}

// Drain flushes everything still buffered, in epoch order. Call at end of
// input.
func (g *ingestGate) Drain() []*model.Batch {
	return g.flushThrough(model.InfiniteEpoch)
}

// merge unions src's readings into dst (same epoch): per reader, dst's
// tags first, then src's tags dst lacks, so a doubled delivery merges to
// the original. The copy of dst and the dedup set are gate scratch, so
// steady-state merging allocates nothing.
func (g *ingestGate) merge(dst, src *model.Batch) {
	if g.dupTags == nil {
		g.dupTags = make(map[model.Tag]bool)
	}
	old := &g.old
	old.Groups = append(old.Groups[:0], dst.Groups...)
	old.Tags = append(old.Tags[:0], dst.Tags...)
	dst.Reset(dst.Time)
	for i, j := 0, 0; i < len(old.Groups) || j < len(src.Groups); {
		var r model.ReaderID
		var have, add []model.Tag
		switch {
		case j == len(src.Groups) || i < len(old.Groups) && old.Groups[i].Reader < src.Groups[j].Reader:
			r, have = old.Groups[i].Reader, old.GroupTags(i)
			i++
		case i == len(old.Groups) || src.Groups[j].Reader < old.Groups[i].Reader:
			r, add = src.Groups[j].Reader, src.GroupTags(j)
			j++
		default:
			r, have, add = old.Groups[i].Reader, old.GroupTags(i), src.GroupTags(j)
			i++
			j++
		}
		dst.AppendGroup(r, have)
		if len(add) == 0 {
			continue
		}
		clear(g.dupTags)
		for _, t := range have {
			g.dupTags[t] = true
		}
		for _, t := range add {
			if !g.dupTags[t] {
				dst.Append(t)
				g.dupTags[t] = true
			}
		}
	}
}

// Package dedup implements the low-level device data cleaning SPIRE
// requires (paper Section II): deduplication of readings caused by
// overlapping reader ranges. At each epoch it detects tags read by several
// nearby readers and assigns each tag to the reader that read the tag most
// recently; within a single epoch, ties are broken toward the reader that
// has read the tag most recently in the past — provided that history is
// recent enough to still be evidence — then toward the lower reader ID for
// determinism.
//
// CleanBatch, over the columnar model.Batch, is the only resolver; it runs
// on the caller's goroutine. The per-tag history store is split into a
// fixed number of tag-hash shards (NumShards) that keep each map small;
// snapshot encoding sorts tags globally, so persisted bytes do not depend
// on the shard layout.
package dedup

import "spire/internal/model"

// DefaultStaleness is the default recency window for the cross-epoch
// tie-break: a reader's past claim on a tag counts only if it read the tag
// within this many epochs. At the paper's one-second epochs this is five
// minutes — long enough to ride out dropout bursts, short enough that a
// reader which saw the tag in some earlier era of the trace does not keep
// winning ties against a currently co-reading reader forever.
const DefaultStaleness model.Epoch = 300

// NumShards is the fixed number of tag-hash shards in the history store.
const NumShards = 32

// shard holds the per-tag history for one tag-hash class, plus the
// columnar scratch used by CleanBatch.
type shard struct {
	lastReader map[model.Tag]model.ReaderID
	lastAt     map[model.Tag]model.Epoch

	// occ is the reused per-epoch occurrence scratch: for each tag of
	// this shard read in the current batch, the (reader, position) pairs
	// in group order. Entries are lazily reset via stamp comparison.
	occ  map[model.Tag]*occEntry
	tags []model.Tag // tags of this shard touched in the current batch
}

// occurrence is one appearance of a tag in a batch: the reader that
// reported it and its position in the tag column.
type occurrence struct {
	reader model.ReaderID
	pos    int32
}

// occEntry is the reused per-tag scratch of one shard.
type occEntry struct {
	stamp uint64
	occs  []occurrence
}

// shardOf maps a tag to its history shard with a splitmix64-style
// finalizer, so adjacent tag IDs (the simulator allocates them densely)
// spread across shards.
func shardOf(g model.Tag) uint32 {
	x := uint64(g)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x) & (NumShards - 1)
}

// Deduplicator tracks per-tag reading history across epochs. It is not
// safe for concurrent use.
type Deduplicator struct {
	shards [NumShards]shard

	// staleness is the recency window; negative means history never
	// expires.
	staleness model.Epoch

	// stamp versions the reused scratch: entries whose stamp differs from
	// the current value are logically empty.
	stamp uint64

	// keep is the reused per-position verdict column of CleanBatch.
	keep []bool

	// ins are the optional telemetry instruments (nil when disabled); see
	// telemetry.go.
	ins *Instruments
}

// New creates an empty Deduplicator with the default staleness window.
func New() *Deduplicator { return NewWithStaleness(DefaultStaleness) }

// NewWithStaleness creates an empty Deduplicator whose cross-epoch
// tie-break only honors history at most window epochs old. A negative
// window disables expiry (history always wins ties); zero selects
// DefaultStaleness.
func NewWithStaleness(window model.Epoch) *Deduplicator {
	if window == 0 {
		window = DefaultStaleness
	}
	d := &Deduplicator{staleness: window}
	for i := range d.shards {
		d.shards[i].lastReader = make(map[model.Tag]model.ReaderID)
		d.shards[i].lastAt = make(map[model.Tag]model.Epoch)
	}
	return d
}

// Staleness returns the configured recency window (negative = never
// expires).
func (d *Deduplicator) Staleness() model.Epoch { return d.staleness }

// freshAt reports whether history recorded at epoch `at` is recent enough
// at epoch now to decide a tie.
func (d *Deduplicator) freshAt(at, now model.Epoch) bool {
	return d.staleness < 0 || now-at <= d.staleness
}

// CleanBatch resolves duplicates in one epoch's columnar batch in place,
// compacting the tag column and group offsets so each tag is retained by
// exactly one reader. The differential suite pins the resolved batch, the
// history left behind, and the telemetry counters against a test-only
// map-per-epoch oracle.
func (d *Deduplicator) CleanBatch(b *model.Batch) *model.Batch {
	d.stamp++
	if cap(d.keep) < len(b.Tags) {
		d.keep = make([]bool, len(b.Tags))
	}
	d.keep = d.keep[:len(b.Tags)]

	// Pass 1: collect occurrences in group order. Groups are ascending by
	// reader, so each tag's occurrence list is already sorted by reader —
	// the lowest-ID tie-break falls out of occs[0].
	for i := range b.Groups {
		g := b.Groups[i]
		for p := g.Start; p < g.End; p++ {
			tag := b.Tags[p]
			sh := &d.shards[shardOf(tag)]
			if sh.occ == nil {
				sh.occ = make(map[model.Tag]*occEntry)
			}
			e := sh.occ[tag]
			if e == nil {
				e = &occEntry{}
				sh.occ[tag] = e
			}
			if e.stamp != d.stamp {
				e.stamp = d.stamp
				e.occs = e.occs[:0]
				sh.tags = append(sh.tags, tag)
			}
			e.occs = append(e.occs, occurrence{reader: g.Reader, pos: p})
		}
	}

	// Pass 2: per tag, decide the winner, mark keeps, and record the
	// assignment as the tag's new history.
	var dups, reassigns int64
	for s := range d.shards {
		sh := &d.shards[s]
		for _, tag := range sh.tags {
			occs := sh.occ[tag].occs
			winner := occs[0].reader
			multi := len(occs) > 1
			last, lastOK := sh.lastReader[tag]
			if multi {
				dups++
				if lastOK && d.freshAt(sh.lastAt[tag], b.Time) {
					for _, oc := range occs {
						if oc.reader == last {
							winner = last
							break
						}
					}
				}
			}
			marked := false
			for _, oc := range occs {
				k := oc.reader == winner && !marked
				if k {
					marked = true
				}
				d.keep[oc.pos] = k
			}
			if multi && lastOK && last != winner {
				reassigns++
			}
			sh.lastReader[tag] = winner
			sh.lastAt[tag] = b.Time
		}
		sh.tags = sh.tags[:0]
	}

	// Compaction: squeeze out dropped positions, fixing group offsets in
	// place. Empty groups are kept — an active reader that read nothing is
	// still information for the caller.
	w := int32(0)
	for i := range b.Groups {
		g := &b.Groups[i]
		start := w
		for p := g.Start; p < g.End; p++ {
			if d.keep[p] {
				b.Tags[w] = b.Tags[p]
				w++
			}
		}
		g.Start, g.End = start, w
	}
	b.Tags = b.Tags[:w]

	if d.ins != nil {
		d.ins.Duplicates.Add(dups)
		d.ins.Reassignments.Add(reassigns)
		d.ins.Tracked.Set(int64(d.Len()))
	}
	return b
}

// Forget drops a tag's history (e.g. after the object exits the world).
func (d *Deduplicator) Forget(g model.Tag) {
	sh := &d.shards[shardOf(g)]
	delete(sh.lastReader, g)
	delete(sh.lastAt, g)
	delete(sh.occ, g)
}

// Len reports the number of tags currently tracked.
func (d *Deduplicator) Len() int {
	n := 0
	for i := range d.shards {
		n += len(d.shards[i].lastReader)
	}
	return n
}

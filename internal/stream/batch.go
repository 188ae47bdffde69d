package stream

import (
	"cmp"
	"io"
	"slices"

	"spire/internal/model"
)

// Batch entry points for the wire format. The raw stream is epoch-major
// and (as WriteBatch emits it) reader-grouped within each epoch, which is
// exactly a model.Batch laid out flat — so one epoch can be decoded
// straight into reused batch columns.

// WriteBatch emits every reading of the batch, grouped by reader in
// ascending reader order (the Batch invariant).
func (w *Writer) WriteBatch(b *model.Batch) error {
	for _, g := range b.Groups {
		for _, tag := range b.Tags[g.Start:g.End] {
			if err := w.Write(model.Reading{Tag: tag, Reader: g.Reader, Time: b.Time}); err != nil {
				return err
			}
		}
	}
	return nil
}

// BatchReader decodes a raw reading stream one epoch at a time into a
// caller-provided reused batch. Note the wire format cannot represent a
// reader that interrogated but read nothing, so empty groups do not
// round-trip.
type BatchReader struct {
	r       *Reader
	pending model.Reading
	has     bool
	err     error // look-ahead error, surfaced on the next call

	// regroup scratch for streams from foreign writers
	groups []model.ReaderGroup
	tags   []model.Tag
}

// NewBatchReader returns a BatchReader decoding from r.
func NewBatchReader(r io.Reader) *BatchReader {
	return &BatchReader{r: NewReader(r)}
}

// Count returns the number of records decoded successfully so far.
func (br *BatchReader) Count() int64 { return br.r.Count() }

// ReadBatch fills b with the next run of same-epoch readings, replacing
// its contents. Checking that epochs increase from one batch to the next
// is left to the caller. Within an epoch readings may arrive in any
// reader order (streams from WriteBatch are already reader-grouped
// ascending and decode with zero extra work; anything else is
// regrouped). Returns io.EOF at a clean end of stream and a
// *CorruptError on a torn record, as Reader.Read does; the batch before
// a torn record is returned intact and the error surfaces on the next
// call.
func (br *BatchReader) ReadBatch(b *model.Batch) error {
	if !br.has {
		if br.err != nil {
			err := br.err
			br.err = nil
			return err
		}
		rd, err := br.r.Read()
		if err != nil {
			return err
		}
		br.pending, br.has = rd, true
	}
	epoch := br.pending.Time
	b.Reset(epoch)
	ordered := true
	for br.has && br.pending.Time == epoch {
		rd := br.pending
		if n := len(b.Groups); n == 0 || b.Groups[n-1].Reader != rd.Reader {
			if n > 0 && b.Groups[n-1].Reader > rd.Reader {
				ordered = false
			}
			b.BeginReader(rd.Reader)
		}
		b.Append(rd.Tag)
		next, err := br.r.Read()
		if err != nil {
			// A torn record surfaces on the next call.
			br.has = false
			if err != io.EOF {
				br.err = err
			}
			break
		}
		br.pending = next
	}
	if !ordered {
		br.regroup(b)
	}
	return nil
}

// regroup rebuilds b with each reader's runs merged into one group and
// the groups sorted ascending, keeping every reader's tags in arrival
// order, for streams whose epochs interleave readers (not produced by
// WriteBatch, so the copy here is off the hot path).
func (br *BatchReader) regroup(b *model.Batch) {
	br.groups = append(br.groups[:0], b.Groups...)
	br.tags = append(br.tags[:0], b.Tags...)
	slices.SortStableFunc(br.groups, func(x, y model.ReaderGroup) int { return cmp.Compare(x.Reader, y.Reader) })
	b.Reset(b.Time)
	for _, g := range br.groups {
		if n := len(b.Groups); n == 0 || b.Groups[n-1].Reader != g.Reader {
			b.BeginReader(g.Reader)
		}
		for _, tag := range br.tags[g.Start:g.End] {
			b.Append(tag)
		}
	}
}

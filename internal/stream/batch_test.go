package stream

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"slices"
	"testing"

	"spire/internal/model"
)

func randomBatch(rng *rand.Rand, t model.Epoch) *model.Batch {
	b := model.NewBatch(t)
	for r := model.ReaderID(1); r <= 6; r++ {
		if rng.Intn(4) == 0 {
			continue
		}
		b.BeginReader(r) // an empty group: interrogated, read nothing
		for k := rng.Intn(8); k > 0; k-- {
			b.Append(model.Tag(rng.Intn(40) + 1))
		}
	}
	return b
}

// TestWriteBatchMatchesWriteObservation pins the wire bytes: a batch
// serializes exactly as its readings written record by record, in
// ascending reader order.
func TestWriteBatchMatchesWriteObservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var fromReadings, fromBatch bytes.Buffer
	wr, wb := NewWriter(&fromReadings), NewWriter(&fromBatch)
	for e := model.Epoch(1); e <= 50; e++ {
		b := randomBatch(rng, e)
		for _, rd := range b.Readings() {
			if err := wr.Write(rd); err != nil {
				t.Fatal(err)
			}
		}
		if err := wb.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := wb.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromReadings.Bytes(), fromBatch.Bytes()) {
		t.Fatal("WriteBatch bytes differ from the batch's readings")
	}
	if wr.Count() != wb.Count() || wr.Bytes() != wb.Bytes() {
		t.Fatalf("writer accounting differs: %d/%d vs %d/%d",
			wr.Count(), wr.Bytes(), wb.Count(), wb.Bytes())
	}
}

// TestBatchReaderRoundTrip decodes a written stream epoch by epoch into
// a reused batch and checks the decoded epochs match what was written.
// Empty groups are deliberately absent from the expectation: the wire
// cannot represent a reader that read nothing.
func TestBatchReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var want []*model.Batch
	for e := model.Epoch(1); e <= 60; e++ {
		b := randomBatch(rng, e)
		if b.Total() == 0 {
			continue // an epoch with no readings does not appear on the wire
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
		b.Groups = slices.DeleteFunc(b.Groups, func(g model.ReaderGroup) bool { return g.Len() == 0 })
		want = append(want, b)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	br := NewBatchReader(bytes.NewReader(buf.Bytes()))
	var b model.Batch
	for i := 0; ; i++ {
		err := br.ReadBatch(&b)
		if err == io.EOF {
			if i != len(want) {
				t.Fatalf("decoded %d epochs, want %d", i, len(want))
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if i >= len(want) {
			t.Fatalf("decoded more than the %d epochs written", len(want))
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("epoch %d: %v", b.Time, err)
		}
		if b.Time != want[i].Time || !slices.Equal(b.Groups, want[i].Groups) || !slices.Equal(b.Tags, want[i].Tags) {
			t.Fatalf("epoch %d: decoded %+v, want %+v", b.Time, b, want[i])
		}
	}
	if br.Count() != w.Count() {
		t.Fatalf("decoded %d records, wrote %d", br.Count(), w.Count())
	}
}

// TestBatchReaderRegroups decodes a stream whose epoch interleaves
// readers (a foreign writer): groups must come out merged and ascending.
func TestBatchReaderRegroups(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	seq := []model.Reading{
		{Tag: 10, Reader: 3, Time: 5},
		{Tag: 11, Reader: 1, Time: 5},
		{Tag: 12, Reader: 3, Time: 5},
		{Tag: 13, Reader: 2, Time: 5},
	}
	for _, rd := range seq {
		if err := w.Write(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewBatchReader(bytes.NewReader(buf.Bytes()))
	var b model.Batch
	if err := br.ReadBatch(&b); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	want := model.NewBatch(5)
	want.AppendGroup(1, []model.Tag{11})
	want.AppendGroup(2, []model.Tag{13})
	want.AppendGroup(3, []model.Tag{10, 12})
	if !slices.Equal(b.Groups, want.Groups) || !slices.Equal(b.Tags, want.Tags) {
		t.Fatalf("regrouped batch = %+v, want %+v", b, want)
	}
}

// TestBatchReaderCorruptTail pins the torn-record contract: everything
// before the tear decodes, then the *CorruptError surfaces.
func TestBatchReaderCorruptTail(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rd := range []model.Reading{
		{Tag: 1, Reader: 1, Time: 1},
		{Tag: 2, Reader: 1, Time: 2},
	} {
		if err := w.Write(rd); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:ReadingSize+ReadingSize/2]
	br := NewBatchReader(bytes.NewReader(torn))
	var b model.Batch
	if err := br.ReadBatch(&b); err != nil {
		t.Fatal(err)
	}
	if b.Time != 1 || b.Total() != 1 {
		t.Fatalf("first epoch should decode: %+v", b)
	}
	err := br.ReadBatch(&b)
	var ce *CorruptError
	if err == nil || !errors.As(err, &ce) {
		t.Fatalf("want *CorruptError, got %v", err)
	}
}

// TestBatchReaderSteadyStateAllocs pins the hot decode loop: once the
// batch buffers are warm, decoding an epoch allocates nothing.
func TestBatchReaderSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for e := model.Epoch(1); e <= 400; e++ {
		b := randomBatch(rng, e)
		if b.Total() == 0 {
			b.AppendGroup(7, []model.Tag{7})
		}
		if err := w.WriteBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	var b model.Batch
	r := bytes.NewReader(raw)
	br := NewBatchReader(r)
	decodeAll := func() {
		r.Reset(raw)
		*br = BatchReader{r: NewReader(r)} // NewReader allocs are per-stream, not per-epoch
		for {
			if err := br.ReadBatch(&b); err == io.EOF {
				return
			} else if err != nil {
				t.Fatal(err)
			}
		}
	}
	decodeAll() // warm the batch buffers
	perStream := testing.AllocsPerRun(50, decodeAll)
	// A fresh Reader is two allocations (struct + bufio buffer); nothing
	// else may allocate across the 400 decoded epochs.
	if perStream > 3 {
		t.Errorf("decoding 400 epochs costs %.1f allocs, want per-stream setup only (<=3)", perStream)
	}
}

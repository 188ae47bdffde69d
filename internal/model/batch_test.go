package model

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// fromReadings rebuilds a batch from flat readings, opening a group at
// every reader change.
func fromReadings(t Epoch, rs []Reading) *Batch {
	b := NewBatch(t)
	for _, rd := range rs {
		if n := len(b.Groups); n == 0 || b.Groups[n-1].Reader != rd.Reader {
			b.BeginReader(rd.Reader)
		}
		b.Append(rd.Tag)
	}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	b := NewBatch(42)
	b.AppendGroup(1, []Tag{200})
	b.AppendGroup(3, []Tag{100, 101})
	b.AppendGroup(7, nil) // active reader that read nothing
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if b.Time != 42 || b.Total() != 3 || len(b.Groups) != 3 {
		t.Fatalf("Time=%d Total=%d groups=%d, want 42/3/3", b.Time, b.Total(), len(b.Groups))
	}
	c := b.Clone()
	if !reflect.DeepEqual(c, b) {
		t.Fatalf("clone mismatch:\n got %+v\nwant %+v", c, b)
	}
	// The empty group must survive cloning, and the clone must not alias.
	if c.Groups[2].Reader != 7 || c.Groups[2].Len() != 0 {
		t.Fatalf("empty reader group lost: %+v", c.Groups)
	}
	c.Tags[0] = 999
	if b.Tags[0] != 200 {
		t.Fatal("clone aliases the tag column")
	}
	// Flat readings lose only the empty group.
	got := fromReadings(b.Time, b.Readings())
	b.Groups = b.Groups[:2]
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("readings round trip mismatch:\n got %+v\nwant %+v", got, b)
	}
}

func TestBatchGroupsAscending(t *testing.T) {
	var b Batch
	for r := ReaderID(1); r <= 20; r++ {
		b.AppendGroup(r, []Tag{Tag(r) * 10})
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	b.AppendGroup(20, nil)
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted a repeated reader group")
	}
	b.Reset(1)
	b.AppendGroup(2, nil)
	b.AppendGroup(1, nil)
	if err := b.Validate(); err == nil {
		t.Fatal("Validate accepted descending reader groups")
	}
}

func TestBatchBuilderAPI(t *testing.T) {
	var b Batch
	b.Reset(9)
	b.BeginReader(1)
	b.Append(11)
	b.Append(12)
	b.BeginReader(4) // empty group
	b.BeginReader(5)
	b.Append(13)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := b.GroupTags(0); !reflect.DeepEqual(got, []Tag{11, 12}) {
		t.Fatalf("group 0 tags = %v", got)
	}
	if b.Groups[1].Len() != 0 {
		t.Fatalf("group 1 should be empty")
	}
	want := []Reading{
		{Tag: 11, Reader: 1, Time: 9},
		{Tag: 12, Reader: 1, Time: 9},
		{Tag: 13, Reader: 5, Time: 9},
	}
	if got := b.Readings(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Readings = %v, want %v", got, want)
	}
	c := b.Clone()
	b.Reset(10)
	if c.Time != 9 || c.Total() != 3 {
		t.Fatalf("clone mutated by Reset: %+v", c)
	}
}

func TestBatchValidateRejects(t *testing.T) {
	bad := []Batch{
		{Groups: []ReaderGroup{{Reader: 2}, {Reader: 1}}},
		{Groups: []ReaderGroup{{Reader: 1, Start: 1, End: 1}}},
		{Groups: []ReaderGroup{{Reader: 1, Start: 0, End: 2}}, Tags: []Tag{1}},
		{Tags: []Tag{1}},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid batch %+v", i, b)
		}
	}
}

func TestBatchRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Batch
	for trial := 0; trial < 200; trial++ {
		b.Reset(Epoch(trial))
		want := []Reading{}
		for r := ReaderID(1); r <= 12; r++ {
			if rng.Intn(3) != 0 {
				continue
			}
			b.BeginReader(r)
			for j := rng.Intn(5); j > 0; j-- {
				g := Tag(1 + rng.Intn(30))
				b.Append(g)
				want = append(want, Reading{Tag: g, Reader: r, Time: b.Time})
			}
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		if got := b.Readings(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: readings %v, want %v", trial, got, want)
		}
		if c := b.Clone(); !reflect.DeepEqual(c.Readings(), want) || !slices.Equal(c.Groups, b.Groups) {
			t.Fatalf("trial %d: clone diverged", trial)
		}
	}
}

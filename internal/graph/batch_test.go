package graph

import (
	"bytes"
	"math/rand"
	"testing"

	"spire/internal/checkpoint"
	"spire/internal/epc"
	"spire/internal/model"
)

// batchScenario is a deterministic random world for differential tests:
// a reader set with shared locations (color collisions), confirming belt
// readers, and a tag population that wanders between locations so edges
// form, conflict, and drop.
type batchScenario struct {
	rng     *rand.Rand
	readers []*model.Reader
	tags    []model.Tag // mixed levels
	at      []int       // tag index -> location index into locs
	locs    []model.LocationID
}

func newBatchScenario(seed int64) *batchScenario {
	rng := rand.New(rand.NewSource(seed))
	s := &batchScenario{rng: rng}
	// Locations 0..5; readers 1..8. Readers 7 and 8 overlap locations of
	// readers 1 and 2 so color collisions occur; reader 3 is a confirming
	// belt for cases.
	s.locs = []model.LocationID{0, 1, 2, 3, 4, 5}
	mk := func(id model.ReaderID, loc model.LocationID) *model.Reader {
		return &model.Reader{ID: id, Location: loc, Period: 1, ReadRate: 1}
	}
	s.readers = []*model.Reader{
		mk(1, 0), mk(2, 1), mk(3, 2), mk(4, 3), mk(5, 4), mk(6, 5), mk(7, 0), mk(8, 1),
	}
	s.readers[2].Confirming = true
	s.readers[2].ConfirmLevel = model.LevelCase
	seq, err := epc.NewSequencer(7)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 8; i++ {
		t, _ := seq.Next(model.LevelPallet)
		s.tags = append(s.tags, t)
	}
	for i := 0; i < 16; i++ {
		t, _ := seq.Next(model.LevelCase)
		s.tags = append(s.tags, t)
	}
	for i := 0; i < 40; i++ {
		t, _ := seq.Next(model.LevelItem)
		s.tags = append(s.tags, t)
	}
	s.at = make([]int, len(s.tags))
	for i := range s.at {
		s.at[i] = rng.Intn(len(s.locs))
	}
	return s
}

// step moves some tags and produces one deduplicated epoch's batch with
// its aligned reader slice: every reader whose location holds tags reads
// the ones no earlier reader of the epoch read (with read-rate dropout),
// so two readers sharing a location split its tags.
func (s *batchScenario) step(now model.Epoch) (*model.Batch, []*model.Reader) {
	read := make([]bool, len(s.tags))
	for i := range s.at {
		if s.rng.Intn(5) == 0 {
			s.at[i] = s.rng.Intn(len(s.locs))
		}
	}
	b := model.NewBatch(now)
	var readers []*model.Reader
	for _, r := range s.readers {
		if s.rng.Intn(10) == 0 {
			continue // reader offline this epoch
		}
		b.BeginReader(r.ID)
		readers = append(readers, r)
		for i, t := range s.tags {
			if s.locs[s.at[i]] == r.Location && s.rng.Intn(10) != 0 && !read[i] {
				read[i] = true
				b.Append(t)
			}
		}
	}
	return b, readers
}

func encodeGraph(g *Graph) []byte {
	var buf bytes.Buffer
	e := checkpoint.NewEncoder()
	g.EncodeState(e)
	if err := e.Flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// applySerial is the reference: update per group in slice order.
func applySerial(t *testing.T, g *Graph, b *model.Batch, readers []*model.Reader) {
	t.Helper()
	for i := range b.Groups {
		if err := g.update(readers[i], b.GroupTags(i), b.Time); err != nil {
			t.Fatalf("update: %v", err)
		}
	}
}

// TestUpdateBatchRetirement interleaves node removal (the exit-retirement
// path) with batched updates, exercising free-list recycling and stale
// component rebuilds against the per-group update sweep.
func TestUpdateBatchRetirement(t *testing.T) {
	ref := New()
	bat := New()
	scn := newBatchScenario(99)
	for now := model.Epoch(1); now <= 150; now++ {
		b, readers := scn.step(now)
		applySerial(t, ref, b.Clone(), readers)
		if err := bat.UpdateBatch(b, readers); err != nil {
			t.Fatalf("UpdateBatch: %v", err)
		}
		if now%7 == 0 {
			victim := scn.tags[scn.rng.Intn(len(scn.tags))]
			ref.RemoveNode(victim)
			bat.RemoveNode(victim)
		}
		if !bytes.Equal(encodeGraph(ref), encodeGraph(bat)) {
			t.Fatalf("epoch %d: graph state diverged", now)
		}
	}
}

// TestUpdateBatchInvalidTagErrorsMidStream pins the error semantics: a
// tag without a valid packaging level errors mid-stream, with earlier
// groups already applied.
func TestUpdateBatchInvalidTagErrorsMidStream(t *testing.T) {
	g := New()
	good := epc.MustEncode(epc.Identity{Level: model.LevelItem, Company: 1, Serial: 2})
	b := model.NewBatch(1)
	b.BeginReader(1)
	b.Append(good)
	b.BeginReader(2)
	b.Append(model.Tag(0xFFFFFFFFFFFFFFFF)) // level bits = 3: invalid
	readers := []*model.Reader{
		{ID: 1, Location: 0, Period: 1},
		{ID: 2, Location: 1, Period: 1},
	}
	err := g.UpdateBatch(b, readers)
	if err == nil {
		t.Fatal("want error for invalid level")
	}
	if n := g.Node(good); n == nil || !n.Colored(1) {
		t.Fatalf("earlier group must already be applied when the error surfaces: %+v", n)
	}
}

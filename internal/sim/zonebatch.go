package sim

import (
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"

	"spire/internal/model"
)

// ZoneBatchFeed drives one simulator in zone-batch mode: the world
// trajectory is advanced exactly as in Step/StepBatch (one draw stream,
// s.rng, consumed only by the physics), but observations are generated
// from an independent per-reader RNG stream seeded from (Config.Seed,
// reader ID). Because a reader's draw sequence then depends only on the
// world trajectory — not on which other readers are being observed — a
// zone worker can observe just its own readers and still produce readings
// byte-identical to the corresponding columns of a full-warehouse
// zone-batch run. That is what lets federate workers ingest only their
// zone without re-running the whole observation pass per epoch.
//
// Zone-batch observations are their own deterministic trace: they differ
// from the Step/StepBatch trace (which interleaves observation draws into
// s.rng), so a deployment must not mix the two modes on one timeline. All
// zone-batch consumers of a seed agree with each other; the equivalence
// tests pin the union-of-zones property.
type ZoneBatchFeed struct {
	s *Simulator

	mu    sync.Mutex
	epoch model.Epoch // epoch the world has been advanced to
	rngs  map[model.ReaderID]*rand.Rand
}

// NewZoneBatchFeed wraps s for zone-batch observation. The simulator must
// be fresh (not yet stepped) and must not be driven through Step or
// StepBatch afterwards.
func NewZoneBatchFeed(s *Simulator) *ZoneBatchFeed {
	return &ZoneBatchFeed{s: s, rngs: make(map[model.ReaderID]*rand.Rand)}
}

// splitmix64 is the SplitMix64 finalizer, used to spread (seed, reader)
// pairs into independent RNG seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (f *ZoneBatchFeed) readerRNG(id model.ReaderID) *rand.Rand {
	r := f.rngs[id]
	if r == nil {
		seed := splitmix64(uint64(f.s.cfg.Seed)) ^ splitmix64(uint64(id)+0x51ED2701A4F3C8D5)
		r = rand.New(rand.NewSource(int64(seed)))
		f.rngs[id] = r
	}
	return r
}

// advanceTo moves the world to epoch t. Streams must be driven in epoch
// lockstep: every stream consumes epoch t before any stream asks for t+1.
// Caller holds f.mu.
func (f *ZoneBatchFeed) advanceTo(t model.Epoch) error {
	switch {
	case t == f.epoch:
		return nil // another stream already advanced this epoch
	case t == f.epoch+1:
		s := f.s
		s.now++
		s.world.SetNow(s.now)
		s.departed = s.departed[:0]
		f.epoch = s.now
		return s.advance()
	default:
		return fmt.Errorf("sim: zone batch stream requested epoch %d with world at %d — streams must be driven in lockstep", t, f.epoch)
	}
}

// Stream returns the feed's view over the given readers (a subset of the
// simulator's deployment). The returned stream owns one reused batch.
func (f *ZoneBatchFeed) Stream(readers []model.Reader) *ZoneBatchStream {
	z := &ZoneBatchStream{feed: f}
	for _, r := range readers {
		z.idx = append(z.idx, f.s.readerIndex(r.ID))
	}
	// Batch.BeginReader requires ascending reader IDs; the deployment
	// table is already ascending by ID, so sorting by index suffices.
	slices.Sort(z.idx)
	return z
}

// ZoneBatchStream is one zone's columnar observation source: each
// NextBatch advances the shared world by one epoch (in lockstep with the
// feed's other streams) and emits the zone's readings into a reused
// batch.
type ZoneBatchStream struct {
	feed *ZoneBatchFeed
	idx  []int // indices into the deployment table, ascending by reader ID
	next model.Epoch
	b    model.Batch
	tags []model.Tag // AtAppend scratch
}

// NextBatch returns the zone's next epoch batch, or io.EOF when the
// configured duration has elapsed. Epochs with no readings in the zone
// still yield an (empty) batch — the substrate needs every epoch.
//
// The returned batch is owned by the stream and valid only until the next
// NextBatch call; callers may consume it in place (core.Substrate
// ProcessBatch compacts the columns it is given), which is exactly the
// stream.BatchReader scratch discipline.
func (z *ZoneBatchStream) NextBatch() (*model.Batch, error) {
	f := z.feed
	if z.next >= f.s.cfg.Duration {
		return nil, io.EOF
	}
	z.next++

	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.advanceTo(z.next); err != nil {
		return nil, err
	}

	s := f.s
	z.b.Reset(z.next)
	for _, i := range z.idx {
		r := &s.readers[i]
		if !r.Active(z.next) {
			continue
		}
		detect := s.detectProb(r)
		rng := f.readerRNG(r.ID)
		z.b.BeginReader(r.ID)
		z.tags = s.world.AtAppend(z.tags[:0], r.Location)
		for _, g := range z.tags {
			if rng.Float64() < detect {
				z.b.Append(g)
			}
		}
	}
	return &z.b, nil
}

// readerIndex locates a reader by ID in the deployment table.
func (s *Simulator) readerIndex(id model.ReaderID) int {
	for i := range s.readers {
		if s.readers[i].ID == id {
			return i
		}
	}
	panic(fmt.Sprintf("sim: unknown reader %d", id))
}

// PartitionZonesBatch partitions the warehouse into n zones exactly like
// PartitionZones and returns one zone-batch stream per zone, all sharing
// one feed over s. Driving a subset of the streams is fine (a zone worker
// process drives only its own), but streams that are driven must stay in
// epoch lockstep.
func (s *Simulator) PartitionZonesBatch(n int) ([]*ZoneBatchStream, error) {
	zones, err := s.PartitionZones(n)
	if err != nil {
		return nil, err
	}
	f := NewZoneBatchFeed(s)
	streams := make([]*ZoneBatchStream, n)
	for z, rs := range zones {
		streams[z] = f.Stream(rs)
	}
	return streams, nil
}

package dedup

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"spire/internal/checkpoint"
	"spire/internal/model"
	"spire/internal/sim"
	"spire/internal/telemetry"
)

// randomStream builds a deterministic sequence of epochs with heavy
// reader overlap, within-reader repeats, and occasional long gaps (to
// exercise the staleness window).
func randomStream(seed int64, epochs int) []*rows {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*rows, 0, epochs)
	now := model.Epoch(1)
	for e := 0; e < epochs; e++ {
		if rng.Intn(20) == 0 {
			now += DefaultStaleness + model.Epoch(rng.Intn(10))
		} else {
			now++
		}
		o := newRows(now)
		readers := rng.Intn(6)
		for i := 0; i < readers; i++ {
			r := model.ReaderID(1 + rng.Intn(8))
			if _, ok := o.ByReader[r]; ok {
				continue
			}
			tags := make([]model.Tag, 0)
			for j := rng.Intn(12); j > 0; j-- {
				tags = append(tags, model.Tag(1+rng.Intn(24)))
			}
			o.ByReader[r] = tags // may be empty: active reader, no reads
		}
		out = append(out, o)
	}
	return out
}

func encodeDedup(d *Deduplicator) []byte {
	var buf bytes.Buffer
	e := checkpoint.NewEncoder()
	d.EncodeState(e)
	if err := e.Flush(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

type counterSet struct{ dups, reassigns, tracked int64 }

func instrument(d *Deduplicator) func() counterSet {
	reg := telemetry.NewRegistry()
	ins := NewInstruments(reg)
	d.Instrument(ins)
	return func() counterSet {
		return counterSet{ins.Duplicates.Value(), ins.Reassignments.Value(), ins.Tracked.Value()}
	}
}

// TestCleanBatchMatchesReference pins CleanBatch against the test-only
// CleanReference oracle: the compacted batch must equal the resolved
// epoch, and history, counters, and persisted bytes must match.
func TestCleanBatchMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		diffAgainstReference(t, randomStream(seed, 300))
	}
}

// diffAgainstReference runs one epoch stream through CleanBatch and
// CleanReference side by side and fails on the first divergence.
func diffAgainstReference(t *testing.T, stream []*rows) {
	t.Helper()
	ref := New()
	bat := New()
	refC := instrument(ref)
	batC := instrument(bat)
	var b model.Batch
	for i, o := range stream {
		want := ref.CleanReference(o.Clone())
		bat.CleanBatch(o.batch(&b))
		if err := b.Validate(); err != nil {
			t.Fatalf("delivery %d epoch %d: invalid batch after CleanBatch: %v", i, o.Time, err)
		}
		if got := rowsOf(&b); !reflect.DeepEqual(got, want) {
			t.Fatalf("delivery %d epoch %d: CleanBatch diverged:\n got %+v\nwant %+v", i, o.Time, got, want)
		}
	}
	if refC() != batC() {
		t.Fatalf("counters diverged: ref %+v batch %+v", refC(), batC())
	}
	if !bytes.Equal(encodeDedup(ref), encodeDedup(bat)) {
		t.Fatal("persisted history diverged")
	}
}

// FuzzIngestBatchEquivalence drives fault-injected delivery sequences of a
// simulated warehouse trace (duplicated, swapped and lost epochs, dropout
// bursts) through CleanBatch and demands the CleanReference result. The
// faults come from the fuzzed parameters, so the fuzzer explores the space
// of broken reader feeds — including repeated and regressing epoch stamps,
// which the staleness window must treat identically on both sides. The
// simulator's reader ranges never overlap, so each delivered reading is
// also echoed into a random other reader at the fuzzed duplicate rate:
// that is what makes the tie-break and the history decide anything.
func FuzzIngestBatchEquivalence(f *testing.F) {
	cfg := sim.DefaultConfig()
	cfg.Duration = 80
	cfg.PalletInterval = 40
	cfg.ItemsPerCase = 3
	cfg.ShelfTime = 60
	cfg.ShelfPeriod = 10
	s, err := sim.New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var trace []*model.Batch
	for !s.Done() {
		b, err := s.Step()
		if err != nil {
			f.Fatal(err)
		}
		trace = append(trace, b)
	}

	f.Add(int64(1), byte(0), byte(0), byte(0), byte(0), byte(0))
	f.Add(int64(2), byte(30), byte(30), byte(10), byte(10), byte(3))
	f.Add(int64(3), byte(60), byte(0), byte(25), byte(7), byte(2))
	f.Add(int64(4), byte(0), byte(60), byte(0), byte(15), byte(5))
	f.Fuzz(func(t *testing.T, seed int64, dup, swap, drop, burstEvery, burstLen byte) {
		fcfg := sim.FaultConfig{
			Seed:          seed,
			DuplicateRate: float64(dup%64) / 100,
			SwapRate:      float64(swap%64) / 100,
			DropEpochRate: float64(drop%32) / 100,
			DropoutEvery:  model.Epoch(burstEvery % 20),
			DropoutLen:    model.Epoch(burstLen % 5),
		}
		rng := rand.New(rand.NewSource(seed))
		readers := s.Readers()
		var delivery []*rows
		for _, b := range sim.NewFaultInjector(fcfg).Apply(trace) {
			o := rowsOf(b)
			for _, rd := range b.Readings() {
				if rng.Float64() < fcfg.DuplicateRate {
					o.Add(readers[rng.Intn(len(readers))].ID, rd.Tag)
				}
			}
			delivery = append(delivery, o)
		}
		diffAgainstReference(t, delivery)
	})
}

// TestCleanBatchForget exercises history removal against the sharded
// store and batch scratch.
func TestCleanBatchForget(t *testing.T) {
	d := New()
	var b model.Batch
	b.Reset(1)
	b.AppendGroup(9, []model.Tag{10})
	d.CleanBatch(&b)
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	d.Forget(10)
	if d.Len() != 0 {
		t.Fatalf("Len after Forget = %d, want 0", d.Len())
	}
	o2 := newRows(2)
	o2.Add(9, 10)
	o2.Add(1, 10)
	d.CleanBatch(o2.batch(&b))
	got := rowsOf(&b)
	if len(got.ByReader[1]) != 1 {
		t.Errorf("forgotten tag must pick lowest reader: %v", got.ByReader)
	}
}

// TestCleanBatchSteadyStateAllocs pins the hot path: zero
// allocations per epoch once scratch has warmed up.
func TestCleanBatchSteadyStateAllocs(t *testing.T) {
	d := New()
	var b model.Batch
	fill := func(now model.Epoch) {
		b.Reset(now)
		for r := model.ReaderID(1); r <= 4; r++ {
			b.BeginReader(r)
			for g := model.Tag(1); g <= 16; g++ {
				b.Append(g)
			}
		}
	}
	for i := 0; i < 8; i++ {
		fill(model.Epoch(i + 1))
		d.CleanBatch(&b)
	}
	now := model.Epoch(100)
	allocs := testing.AllocsPerRun(64, func() {
		fill(now)
		d.CleanBatch(&b)
		now++
	})
	if allocs != 0 {
		t.Fatalf("CleanBatch allocates %.1f/op in steady state, want 0", allocs)
	}
}

func TestShardOfStable(t *testing.T) {
	// The shard function participates in no persisted format, but spread
	// matters: dense tag ranges must not collapse into few shards.
	var hit [NumShards]bool
	for g := model.Tag(1); g <= 256; g++ {
		hit[shardOf(g)] = true
	}
	n := 0
	for _, h := range hit {
		if h {
			n++
		}
	}
	if n < NumShards/2 {
		t.Fatalf("dense tags hit only %d/%d shards", n, NumShards)
	}
}

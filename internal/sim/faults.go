package sim

import (
	"math/rand"

	"spire/internal/model"
	"spire/internal/stream"
)

// Fault injection. A FaultInjector perturbs a clean per-epoch batch
// trace the way a reader deployment loses data: whole-reader dropout
// bursts and lost epochs. The delivered sequence stays in epoch order,
// as the reader feed guarantees. The injector is deterministic under a
// fixed seed and never mutates the input trace — every emitted batch is
// a fresh clone, since the substrate consumes batches destructively.

// FaultConfig parameterizes the injector. Zero values disable each fault.
type FaultConfig struct {
	// Seed drives the fault schedule deterministically.
	Seed int64

	// DropoutEvery starts a reader dropout burst every this many epochs;
	// DropoutLen is the burst length in epochs. During a burst one
	// randomly chosen reader goes silent (its readings are removed).
	DropoutEvery model.Epoch
	DropoutLen   model.Epoch

	// DropEpochRate is the per-batch probability of the whole
	// epoch's delivery being lost (an epoch gap).
	DropEpochRate float64
}

// FaultInjector applies a FaultConfig to batch traces.
type FaultInjector struct {
	cfg FaultConfig
	rng *rand.Rand
}

// NewFaultInjector builds an injector.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	return &FaultInjector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Apply returns the faulted delivery sequence for a clean epoch-ordered
// trace. The input is not modified.
func (f *FaultInjector) Apply(trace []*model.Batch) []*model.Batch {
	out := make([]*model.Batch, 0, len(trace))
	var burstVictim model.ReaderID
	burstUntil := model.Epoch(-1)
	for _, b := range trace {
		dropout := false
		if f.cfg.DropoutEvery > 0 && f.cfg.DropoutLen > 0 {
			if b.Time%f.cfg.DropoutEvery == 0 {
				burstVictim = f.pickReader(b)
				burstUntil = b.Time + f.cfg.DropoutLen
			}
			dropout = b.Time < burstUntil
		}
		c := model.NewBatch(b.Time)
		for i, g := range b.Groups {
			if dropout && g.Reader == burstVictim {
				continue
			}
			c.AppendGroup(g.Reader, b.GroupTags(i))
		}

		if f.cfg.DropEpochRate > 0 && f.rng.Float64() < f.cfg.DropEpochRate {
			continue
		}
		out = append(out, c)
	}
	return out
}

// pickReader chooses the burst victim among the reader groups of b,
// deterministically given the rng state.
func (f *FaultInjector) pickReader(b *model.Batch) model.ReaderID {
	if len(b.Groups) == 0 {
		return 0
	}
	return b.Groups[f.rng.Intn(len(b.Groups))].Reader
}

// TruncateMidRecord cuts a raw binary reading stream in the middle of the
// given record (not on a record boundary), producing the torn tail a
// crashed writer leaves behind.
func TruncateMidRecord(raw []byte, record int) []byte {
	cut := record*stream.ReadingSize + stream.ReadingSize/2
	if cut > len(raw) {
		cut = len(raw)
	}
	return raw[:cut]
}

package core

import (
	"context"
	"fmt"
	"time"

	"spire/internal/model"
)

// RunnerConfig adds durability and ingest hardening to a Runner.
type RunnerConfig struct {
	// CheckpointPath, when set, makes the runner write an atomic snapshot
	// of the substrate there every CheckpointEvery processed epochs and at
	// clean end of input.
	CheckpointPath string
	// CheckpointEvery is the checkpoint period in processed epochs; zero
	// disables periodic checkpoints (the end-of-input checkpoint is still
	// written when CheckpointPath is set).
	CheckpointEvery int
	// Ingest selects the malformed-input policy.
	Ingest IngestConfig
}

// Runner drives a Substrate from a channel of batches — the natural
// shape for wiring SPIRE between a live reader feed and downstream
// consumers. The substrate itself is single-threaded (epochs are causally
// dependent), so the runner owns it exclusively; concurrency lives at the
// channel boundaries.
type Runner struct {
	sub       *Substrate
	cfg       RunnerConfig
	gate      *ingestGate
	sinceCkpt int
}

// NewRunner wraps a substrate with default behavior (strict ingest, no
// checkpoints). The substrate must not be used elsewhere while the runner
// is active.
func NewRunner(sub *Substrate) *Runner {
	return NewRunnerConfigured(sub, RunnerConfig{})
}

// NewRunnerConfigured wraps a substrate with the given runner
// configuration. The ingest gate starts at the substrate's last processed
// epoch, so a runner over a restored substrate treats already-processed
// epochs as stale under the reject/repair policies.
func NewRunnerConfigured(sub *Substrate, cfg RunnerConfig) *Runner {
	return &Runner{
		sub:  sub,
		cfg:  cfg,
		gate: newIngestGate(cfg.Ingest, sub.LastEpoch()),
	}
}

// IngestStats reports the ingest gate's decisions so far.
func (r *Runner) IngestStats() IngestStats { return r.gate.stats }

// Run consumes batches until the input channel closes or the context
// is cancelled, sending each epoch's output downstream. On clean input
// exhaustion it emits a final EpochOutput carrying only the stream-closing
// events (with Result == nil) before closing the output channel.
//
// The returned error is nil on a clean run, the context's error on
// cancellation, or the first processing error otherwise. The output
// channel is always closed before Run returns.
//
// Run takes ownership of every batch it receives: the substrate consumes
// batches destructively, so senders must not reuse them.
func (r *Runner) Run(ctx context.Context, in <-chan *model.Batch, out chan<- *EpochOutput) error {
	defer close(out)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case b, ok := <-in:
			if !ok {
				return r.finish(ctx, out)
			}
			if err := r.process(ctx, r.timeGate(func() []*model.Batch { return r.gate.Offer(b) }), out); err != nil {
				return err
			}
		}
	}
}

// finish runs the end-of-input tail: drain the gate, emit the
// stream-closing events, and take the final checkpoint.
func (r *Runner) finish(ctx context.Context, out chan<- *EpochOutput) error {
	if err := r.process(ctx, r.timeGate(r.gate.Drain), out); err != nil {
		return err
	}
	closing := r.sub.Close(r.sub.LastEpoch() + 1)
	if len(closing) > 0 {
		final := &EpochOutput{Events: closing}
		select {
		case out <- final:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if r.cfg.CheckpointPath != "" {
		if err := r.sub.SnapshotToFile(r.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("core: final checkpoint: %w", err)
		}
	}
	return nil
}

// timeGate runs one ingest gate call, recording the stage latency when
// the substrate is instrumented or traced.
func (r *Runner) timeGate(gate func() []*model.Batch) []*model.Batch {
	tel, rec := r.sub.tel, r.sub.rec
	if tel == nil && rec == nil {
		return gate()
	}
	start := time.Now()
	ready := gate()
	d := time.Since(start)
	if tel != nil {
		tel.StageIngest.Observe(d.Seconds())
	}
	rec.ObserveIngest(d.Nanoseconds())
	return ready
}

// process runs the substrate over gated batches, forwards the outputs,
// and takes periodic checkpoints.
func (r *Runner) process(ctx context.Context, ready []*model.Batch, out chan<- *EpochOutput) error {
	for _, b := range ready {
		po, err := r.sub.ProcessBatch(b)
		if err != nil {
			return fmt.Errorf("core: epoch %d: %w", b.Time, err)
		}
		// The substrate reuses its result buffers across epochs; the
		// channel hands po to a consumer that may still be reading it
		// when the next epoch is processed, so detach the results here.
		po.Result = po.Result.Clone()
		po.RawResult = po.RawResult.Clone()
		select {
		case out <- po:
		case <-ctx.Done():
			return ctx.Err()
		}
		if r.cfg.CheckpointPath != "" && r.cfg.CheckpointEvery > 0 {
			r.sinceCkpt++
			if r.sinceCkpt >= r.cfg.CheckpointEvery {
				if err := r.sub.SnapshotToFile(r.cfg.CheckpointPath); err != nil {
					return fmt.Errorf("core: checkpoint at epoch %d: %w", b.Time, err)
				}
				r.sinceCkpt = 0
			}
		}
	}
	return nil
}

package core

import (
	"context"
	"fmt"

	"spire/internal/model"
)

// RunnerConfig adds durability to a Runner.
type RunnerConfig struct {
	// CheckpointPath, when set, makes the runner write an atomic snapshot
	// of the substrate there every CheckpointEvery processed epochs and at
	// clean end of input.
	CheckpointPath string
	// CheckpointEvery is the checkpoint period in processed epochs; zero
	// disables periodic checkpoints (the end-of-input checkpoint is still
	// written when CheckpointPath is set).
	CheckpointEvery int
}

// Runner drives a Substrate from a channel of batches — the natural
// shape for wiring SPIRE between a live reader feed and downstream
// consumers. The substrate itself is single-threaded (epochs are causally
// dependent), so the runner owns it exclusively; concurrency lives at the
// channel boundaries.
//
// The sender owns input order: batches must arrive in strictly
// increasing epoch order, and a batch at or before the last processed
// epoch fails the run (ProcessBatch's guard). A sender resuming a
// restored substrate skips the epochs it already processed.
type Runner struct {
	sub       *Substrate
	cfg       RunnerConfig
	sinceCkpt int
}

// NewRunner wraps a substrate with the given runner configuration; the
// zero RunnerConfig takes no checkpoints. The substrate must not be used
// elsewhere while the runner is active.
func NewRunner(sub *Substrate, cfg RunnerConfig) *Runner {
	return &Runner{sub: sub, cfg: cfg}
}

// Run consumes batches until the input channel closes or the context
// is cancelled, sending each epoch's output downstream. On clean input
// exhaustion it emits a final EpochOutput carrying only the stream-closing
// events (with Result == nil, Epoch the close epoch) before closing the
// output channel.
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
			if err := r.process(ctx, b, out); err != nil {
				return err
			}
		}
	}
}

// finish runs the end-of-input tail: emit the stream-closing events and
// take the final checkpoint.
func (r *Runner) finish(ctx context.Context, out chan<- *EpochOutput) error {
	// The final output is sent even when nothing was open: its epoch is
	// the clock tick a downstream consumer resolves its last windows at.
	end := r.sub.LastEpoch() + 1
	select {
	case out <- &EpochOutput{Epoch: end, Events: r.sub.Close(end)}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if r.cfg.CheckpointPath != "" {
		if err := r.sub.SnapshotToFile(r.cfg.CheckpointPath); err != nil {
			return fmt.Errorf("core: final checkpoint: %w", err)
		}
	}
	return nil
}

// process runs the substrate over one batch, forwards the output, and
// takes the periodic checkpoint when one is due.
func (r *Runner) process(ctx context.Context, b *model.Batch, out chan<- *EpochOutput) error {
	po, err := r.sub.ProcessBatch(b)
	if err != nil {
		return fmt.Errorf("core: epoch %d: %w", b.Time, err)
	}
	// The substrate reuses its result buffers across epochs; the channel
	// hands po to a consumer that may still be reading it when the next
	// epoch is processed, so detach the results here.
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
	return nil
}

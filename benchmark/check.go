package main

import (
	"fmt"

	"spire/internal/compress"
	"spire/internal/core"
	"spire/internal/event"
	"spire/internal/metrics"
	"spire/internal/model"
)

// eventTolerance is the Vs slack when matching output events to ground
// truth, as experiments.Fig11 scores them: interpretation can lag a
// transition by missed readings, and the slowest reader bounds that lag.
const eventTolerance = 60

// decodeOutput decodes a pass's encoded output back into events, epoch
// by epoch. Decoding what was encoded (rather than keeping the events)
// makes the codec round trip part of the check.
func decodeOutput(out []byte, ends []int) (epochEvents, error) {
	var s epochEvents
	at := 0
	for i, end := range ends {
		for at < end {
			e, n, err := event.Decode(out[at:end])
			if err != nil {
				return s, fmt.Errorf("output epoch index %d: %w", i, err)
			}
			s.ev = append(s.ev, e)
			at += n
		}
		s.ends = append(s.ends, len(s.ev))
	}
	return s, nil
}

// decompress turns a level-2 stream back into the level-1 stream it
// stands for.
func decompress(s epochEvents, closeAt model.Epoch) ([]event.Event, error) {
	dec := compress.NewDecompressor()
	var l1 []event.Event
	for i := range s.ends {
		out, err := dec.Step(s.epoch(i))
		if err != nil {
			return nil, fmt.Errorf("decompress epoch index %d: %w", i, err)
		}
		l1 = append(l1, out...)
	}
	return append(l1, dec.Close(closeAt)...), nil
}

// verdict is the outcome of checking a run's output.
type verdict struct {
	problems []string
	fMeasure float64
}

func (v *verdict) fail(format string, args ...any) {
	v.problems = append(v.problems, fmt.Sprintf(format, args...))
}

// checkOutput verifies the whole output stream of a run: the ramp's
// output followed by one pass's. The stream must be well formed and
// closed; a level-2 stream must decompress to a well-formed level-1
// stream; and its location events must score above the workload's floor
// against the ground truth.
func checkOutput(tr *trace, pass *passResult) verdict {
	var v verdict
	tail, err := decodeOutput(pass.out, pass.ends)
	if err != nil {
		v.fail("%v", err)
		return v
	}
	full := epochEvents{ev: append([]event.Event(nil), tr.ramp.ev...), ends: append([]int(nil), tr.ramp.ends...)}
	for i := range tail.ends {
		full.add(tail.epoch(i))
	}
	if err := event.CheckWellFormed(full.ev, true); err != nil {
		v.fail("output stream not well formed: %v", err)
	}
	l1 := full.ev
	if tr.w.Level == core.Level2 {
		if l1, err = decompress(full, tr.end+1); err != nil {
			v.fail("%v", err)
			return v
		}
		if err := event.CheckWellFormed(l1, true); err != nil {
			v.fail("decompressed stream not well formed: %v", err)
		}
	}
	outLoc, _ := event.SplitStreams(l1)
	truthLoc, _ := event.SplitStreams(tr.truth)
	v.fMeasure = metrics.ScoreEvents(outLoc, truthLoc, eventTolerance).F
	if v.fMeasure < tr.w.FFloor {
		v.fail("event F-measure %.4f below the workload floor %.2f", v.fMeasure, tr.w.FFloor)
	}
	return v
}

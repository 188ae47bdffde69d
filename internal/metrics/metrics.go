// Package metrics implements the evaluation measures of the paper's
// Section VI: per-object location and containment error rates against
// ground truth, the event-based precision/recall/F-measure used for the
// output stream (Expt 7), compression ratios (Expt 8), and anomaly
// detection delay (Expt 4).
package metrics

import (
	"sort"

	"spire/internal/event"
	"spire/internal/inference"
	"spire/internal/model"
)

// Accuracy accumulates per-epoch inference error rates. An inference
// result is an error when it is inconsistent with the ground truth; the
// error rate is averaged over all scored (object, epoch) pairs.
type Accuracy struct {
	LocTotal, LocWrong   int64
	ContTotal, ContWrong int64
}

// Observe scores one epoch's (conflict-resolved) result against the
// world. Objects for which exclude returns true — e.g. objects at the
// paper's warm-up entry door — are skipped, as are objects absent from
// either the result (withheld) or the world (already departed).
func (a *Accuracy) Observe(res *inference.Result, truthLoc func(model.Tag) model.LocationID, truthParent func(model.Tag) model.Tag, exclude func(model.Tag) bool) {
	for _, v := range res.Rows() {
		want := truthLoc(v.Tag)
		if want == model.LocationNone {
			continue // not in the world (departed)
		}
		if exclude != nil && exclude(v.Tag) {
			continue
		}
		a.LocTotal++
		if v.Location != want {
			a.LocWrong++
		}
		if v.HasParent {
			a.ContTotal++
			if v.Parent != truthParent(v.Tag) {
				a.ContWrong++
			}
		}
	}
}

// LocationErrorRate returns the accumulated location error rate.
func (a *Accuracy) LocationErrorRate() float64 {
	if a.LocTotal == 0 {
		return 0
	}
	return float64(a.LocWrong) / float64(a.LocTotal)
}

// ContainmentErrorRate returns the accumulated containment error rate.
func (a *Accuracy) ContainmentErrorRate() float64 {
	if a.ContTotal == 0 {
		return 0
	}
	return float64(a.ContWrong) / float64(a.ContTotal)
}

// EventScore is the event-based accuracy of an output stream against the
// ground-truth compressed stream, borrowing precision/recall/F-measure
// from information retrieval as the paper does.
type EventScore struct {
	Matched, Output, Truth int
	Precision, Recall, F   float64
}

// eventKey identifies comparable events: kind plus payload, ignoring
// timestamps (which matching handles separately).
type eventKey struct {
	kind      event.Kind
	object    model.Tag
	location  model.LocationID
	container model.Tag
}

// ScoreEvents compares an output event stream against the ground-truth
// stream. Events match one-to-one when they agree on kind, object, and
// payload, and their start timestamps differ by at most tolerance epochs
// (negative tolerance = unlimited). Matching is greedy in time order
// within each payload group.
func ScoreEvents(output, truth []event.Event, tolerance model.Epoch) EventScore {
	group := func(evs []event.Event) map[eventKey][]model.Epoch {
		m := make(map[eventKey][]model.Epoch)
		for _, e := range evs {
			k := eventKey{kind: e.Kind, object: e.Object, location: e.Location, container: e.Container}
			m[k] = append(m[k], e.Vs)
		}
		for _, ts := range m {
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		}
		return m
	}
	om, tm := group(output), group(truth)
	score := EventScore{Output: len(output), Truth: len(truth)}
	for k, outs := range om {
		trs := tm[k]
		i, j := 0, 0
		for i < len(outs) && j < len(trs) {
			d := outs[i] - trs[j]
			if d < 0 {
				d = -d
			}
			if tolerance < 0 || d <= tolerance {
				score.Matched++
				i++
				j++
				continue
			}
			if outs[i] < trs[j] {
				i++ // unmatched output event
			} else {
				j++ // unmatched truth event
			}
		}
	}
	if score.Output > 0 {
		score.Precision = float64(score.Matched) / float64(score.Output)
	}
	if score.Truth > 0 {
		score.Recall = float64(score.Matched) / float64(score.Truth)
	}
	if score.Precision+score.Recall > 0 {
		score.F = 2 * score.Precision * score.Recall / (score.Precision + score.Recall)
	}
	return score
}

// Ratio returns out/in as a fraction (the paper's compression ratio:
// compressed output size over raw input size).
func Ratio(outBytes, inBytes int64) float64 {
	if inBytes == 0 {
		return 0
	}
	return float64(outBytes) / float64(inBytes)
}

// Detection summarizes anomaly detection over a set of thefts.
type Detection struct {
	Total     int
	Detected  int
	MeanDelay float64
	MaxDelay  model.Epoch
}

// DetectionDelays scans the output stream for the first Missing message of
// each stolen object at or after its theft epoch and reports the delay
// statistics (Expt 4).
func DetectionDelays(output []event.Event, thefts map[model.Tag]model.Epoch) Detection {
	first := make(map[model.Tag]model.Epoch, len(thefts))
	for _, e := range output {
		if e.Kind != event.Missing {
			continue
		}
		at, stolen := thefts[e.Object]
		if !stolen || e.Vs < at {
			continue
		}
		if cur, ok := first[e.Object]; !ok || e.Vs < cur {
			first[e.Object] = e.Vs
		}
	}
	d := Detection{Total: len(thefts)}
	var sum int64
	for g, at := range thefts {
		found, ok := first[g]
		if !ok {
			continue
		}
		d.Detected++
		delay := found - at
		sum += int64(delay)
		if delay > d.MaxDelay {
			d.MaxDelay = delay
		}
	}
	if d.Detected > 0 {
		d.MeanDelay = float64(sum) / float64(d.Detected)
	}
	return d
}

package sim

import (
	"spire/internal/inference"
	"spire/internal/model"
)

// TrueResult snapshots the ground truth as an inference.Result, so the
// same compression machinery can build the ground-truth event stream the
// paper's event-based accuracy metric compares against (Expt 7).
//
// Locations are the true locations (model.LocationUnknown for stolen
// objects); Parents are the true direct containers. Observed is left empty
// — ground truth has no notion of a missed reading.
func (s *Simulator) TrueResult() *inference.Result {
	res := &inference.Result{
		Now:       s.now,
		Locations: make(map[model.Tag]model.LocationID, s.world.Len()),
		Parents:   make(map[model.Tag]model.Tag, s.world.Len()),
		Observed:  map[model.Tag]bool{},
	}
	s.world.Each(func(st *model.ObjectState) {
		res.Locations[st.Tag] = st.Location
		res.Parents[st.Tag] = st.Parent
	})
	return res
}

// SteadyStateCount reports the number of objects currently in the world —
// used to confirm workloads like the 16-hour ~2860-object steady state of
// Expt 7/8.
func (s *Simulator) SteadyStateCount() int { return s.world.Len() }

package inference

import (
	"sort"

	"spire/internal/model"
	"spire/internal/trace"
)

// ResolveConflicts post-processes an inference result so the reported
// locations and containments are mutually consistent (Section IV-E,
// Table I). Iterative inference settles the two endpoints of a chosen
// containment edge in different sweeps, so they can disagree; the general
// guideline is to give the containment relationship priority over an
// inferred location, because containment is usually backed by a
// special-reader confirmation.
//
// The three rules, applied per chosen containment pair with differing
// locations:
//
//	I   parent observed, child inferred   → override the child's location;
//	II  parent inferred, child observed   → poll all children; adopt a
//	    majority location for the parent, then end the containment of
//	    observed children still in conflict;
//	III parent inferred, child inferred   → poll as in II, then override
//	    the child's location.
//
// Parents are processed from the highest packaging level down so an
// override cascades to grandchildren. The result is mutated in place.
//
// levelOf reports the packaging level of a tag (used only for ordering);
// it is supplied by the caller so this package stays decoupled from the
// tag codec.
//
// rec, when non-nil, receives decision provenance: every Table I rule
// firing (and the children's majority poll preceding Rules II-III) is
// recorded against the affected tag. A nil recorder records nothing and
// costs no extra work.
func ResolveConflicts(res *Result, levelOf func(model.Tag) model.Level, rec *trace.Recorder) {
	// Group chosen children per parent.
	children := make(map[model.Tag][]model.Tag)
	for child, parent := range res.Parents {
		if parent == model.NoTag {
			continue
		}
		if _, ok := res.Locations[child]; !ok {
			continue // withheld under partial inference: nothing reported
		}
		children[parent] = append(children[parent], child)
	}
	parents := make([]model.Tag, 0, len(children))
	for p := range children {
		parents = append(parents, p)
	}
	// Highest level first; ties in tag order for determinism.
	sort.Slice(parents, func(i, j int) bool {
		li, lj := levelOf(parents[i]), levelOf(parents[j])
		if li != lj {
			return li > lj
		}
		return parents[i] < parents[j]
	})

	// A location is "settled" when it was directly observed or inherited
	// from a settled container higher up the pass; the children's poll may
	// not override a settled location, otherwise a rule-I override at the
	// pallet level would be undone when the case is later processed as a
	// parent itself.
	settled := make(map[model.Tag]bool, len(res.Observed))
	for tag, obs := range res.Observed {
		if obs {
			settled[tag] = true
		}
	}

	for _, p := range parents {
		kids := children[p]
		sort.Slice(kids, func(i, j int) bool { return kids[i] < kids[j] })
		ploc, ok := res.Locations[p]
		if !ok {
			// The parent itself was withheld (partial inference). Leave
			// the children as they are: no parent location to enforce.
			continue
		}
		if !settled[p] {
			// Rules II/III preamble: the parent's location is inferred, so
			// poll the children before enforcing anything. A strict
			// majority of the children voting for one known location
			// overrides the parent's estimate.
			// Children with "unknown" verdicts carry no location evidence
			// (they are typically the parent's own missed readings), so
			// the majority is taken over the children that actually vote
			// a known location.
			votes := make(map[model.LocationID]int)
			total := 0
			for _, c := range kids {
				if loc, ok := res.Locations[c]; ok && loc.Known() {
					votes[loc]++
					total++
				}
			}
			bestLoc, bestN := model.LocationNone, 0
			for loc, n := range votes {
				if n > bestN || (n == bestN && (bestLoc == model.LocationNone || loc < bestLoc)) {
					bestLoc, bestN = loc, n
				}
			}
			if bestN*2 > total {
				if rec != nil && ploc != bestLoc && rec.Traces(p) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: p, Mech: trace.MechMajorityPoll,
						Loc: bestLoc, Aux: int32(bestN),
					})
				}
				ploc = bestLoc
				res.Locations[p] = ploc
			}
		}
		for _, c := range kids {
			cloc, ok := res.Locations[c]
			if !ok || cloc == ploc {
				continue
			}
			switch {
			case res.Observed[c] && !res.Observed[p]:
				// Rule II: an observed child that still disagrees ends its
				// containment — we report that the child has no container.
				res.Parents[c] = model.NoTag
				if rec != nil && rec.Traces(c) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c, Mech: trace.MechRuleII,
						Loc: cloc, Other: p,
					})
				}
			case res.Observed[c] && res.Observed[p]:
				// Both observed in different locations: the graph update
				// would have dropped the edge, so this cannot arise from a
				// single consistent epoch; keep the observations and end
				// the containment defensively.
				res.Parents[c] = model.NoTag
				if rec != nil && rec.Traces(c) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c, Mech: trace.MechRuleII,
						Loc: cloc, Other: p, Aux: 1,
					})
				}
			default:
				// Rules I and III: containment wins, the child's inferred
				// location is overridden by the parent's.
				res.Locations[c] = ploc
				if settled[p] {
					settled[c] = true
				}
				if rec != nil && rec.Traces(c) {
					mech := trace.MechRuleIII
					if res.Observed[p] {
						mech = trace.MechRuleI
					}
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c, Mech: mech,
						Loc: ploc, Other: p,
					})
				}
			}
		}
	}
}

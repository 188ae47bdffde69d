package inference

import (
	"cmp"
	"slices"

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
// override cascades to grandchildren. The result's rows are updated in
// place.
//
// levelOf reports the packaging level of a tag (used only for ordering);
// it is supplied by the caller so this package stays decoupled from the
// tag codec.
//
// It returns the number of Table I decisions: rule firings plus the
// children's majority polls that moved a parent (the preamble of Rules
// II-III). rec receives each decision about a traced tag as provenance;
// a nil recorder records nothing and costs no extra work.
func ResolveConflicts(res *Result, levelOf func(model.Tag) model.Level, rec *trace.Recorder) (decisions int64) {
	rows := res.Rows()
	// A sparse-form result is resolved in row form from here on.
	res.Locations, res.Parents, res.Observed = nil, nil, nil

	// Group chosen children per parent: highest level first, ties in tag
	// order for determinism; rows are tag-sorted, so each group's
	// children come out in tag order too.
	pairs := res.pairs[:0]
	for i, v := range rows {
		if v.HasParent && v.Parent != model.NoTag {
			pairs = append(pairs, childPair{level: levelOf(v.Parent), parent: v.Parent, child: int32(i)})
		}
	}
	slices.SortFunc(pairs, func(a, b childPair) int {
		if a.level != b.level {
			return cmp.Compare(b.level, a.level)
		}
		return cmp.Or(cmp.Compare(a.parent, b.parent), cmp.Compare(a.child, b.child))
	})
	res.pairs = pairs

	// A location is "settled" when it was directly observed or inherited
	// from a settled container higher up the pass; the children's poll may
	// not override a settled location, otherwise a rule-I override at the
	// pallet level would be undone when the case is later processed as a
	// parent itself.
	settled := res.settled[:0]
	for _, v := range rows {
		settled = append(settled, v.Observed)
	}
	res.settled = settled

	for len(pairs) > 0 {
		p := pairs[0].parent
		n := 1
		for n < len(pairs) && pairs[n].parent == p {
			n++
		}
		kids := pairs[:n]
		pairs = pairs[n:]
		pi, ok := findRow(rows, p)
		if !ok {
			// The parent itself was withheld (partial inference). Leave
			// the children as they are: no parent location to enforce.
			continue
		}
		prow := &rows[pi]
		ploc := prow.Location
		if !settled[pi] {
			// Rules II/III preamble: the parent's location is inferred, so
			// poll the children before enforcing anything. A strict
			// majority of the children voting for one known location
			// overrides the parent's estimate.
			// Children with "unknown" verdicts carry no location evidence
			// (they are typically the parent's own missed readings), so
			// the majority is taken over the children that actually vote
			// a known location, each vote a unit of mass.
			votes := res.votes[:0]
			total := 0.0
			for _, k := range kids {
				if loc := rows[k.child].Location; loc.Known() {
					votes = addMass(votes, loc, 1)
					total++
				}
			}
			res.votes = votes
			// Ties need no break: two locations tied at the top count
			// m make total ≥ 2m, so neither is a strict majority.
			best := propagation{loc: model.LocationNone}
			for _, v := range votes {
				if v.p > best.p {
					best = v
				}
			}
			if best.p*2 > total {
				if ploc != best.loc {
					decisions++
					if rec.Traces(p) {
						rec.Record(trace.Record{
							Epoch: res.Now, Tag: p, Mech: trace.MechMajorityPoll,
							Loc: best.loc, Aux: int32(best.p),
						})
					}
				}
				ploc = best.loc
				prow.Location = ploc
			}
		}
		for _, k := range kids {
			c := &rows[k.child]
			cloc := c.Location
			if cloc == ploc {
				continue
			}
			decisions++
			switch {
			case c.Observed && !prow.Observed:
				// Rule II: an observed child that still disagrees ends its
				// containment — we report that the child has no container.
				c.Parent = model.NoTag
				if rec.Traces(c.Tag) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: trace.MechRuleII,
						Loc: cloc, Other: p,
					})
				}
			case c.Observed && prow.Observed:
				// Both observed in different locations: the graph update
				// would have dropped the edge, so this cannot arise from a
				// single consistent epoch; keep the observations and end
				// the containment defensively.
				c.Parent = model.NoTag
				if rec.Traces(c.Tag) {
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: trace.MechRuleII,
						Loc: cloc, Other: p, Aux: 1,
					})
				}
			default:
				// Rules I and III: containment wins, the child's inferred
				// location is overridden by the parent's.
				c.Location = ploc
				if settled[pi] {
					settled[k.child] = true
				}
				if rec.Traces(c.Tag) {
					mech := trace.MechRuleIII
					if prow.Observed {
						mech = trace.MechRuleI
					}
					rec.Record(trace.Record{
						Epoch: res.Now, Tag: c.Tag, Mech: mech,
						Loc: ploc, Other: p,
					})
				}
			}
		}
	}
	return decisions
}

// childPair is one chosen containment (rows[child] in parent), keyed for
// Table I's processing order.
type childPair struct {
	parent model.Tag
	child  int32
	level  model.Level
}

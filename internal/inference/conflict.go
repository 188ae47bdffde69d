package inference

import (
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
	res.group(levelOf)

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

	for _, pi := range res.order {
		prow := &rows[pi]
		p, ploc := prow.Tag, prow.Location
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
			for k := res.head[pi]; k >= 0; k = res.next[k] {
				if loc := rows[k].Location; loc.Known() {
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
		for k := res.head[pi]; k >= 0; k = res.next[k] {
			c := &rows[k]
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
					settled[k] = true
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

// group links every row whose chosen container has a row into that
// row's list, head[p] then next[c] in row order, and lists the containers
// with a child in Table I's order: level descending, then row (tag) order.
// Rows from Infer know their container's row; a sparse-form result finds
// it by binary search.
func (r *Result) group(levelOf func(model.Tag) model.Level) {
	rows, n := r.rows, len(r.rows)
	if len(r.prow) != n {
		r.prow = slices.Grow(r.prow[:0], n)[:n]
		for i, v := range rows {
			r.prow[i] = -1
			if p, ok := findRow(rows, v.Parent); ok && v.HasParent && v.Parent != model.NoTag {
				r.prow[i] = int32(p)
			}
		}
	}
	head, next := slices.Grow(r.head[:0], n)[:n], slices.Grow(r.next[:0], n)[:n]
	for i := range head {
		head[i] = -1
	}
	for i := n - 1; i >= 0; i-- {
		// Rule II's detachments since the rows were written no longer count.
		if p := r.prow[i]; p >= 0 && rows[i].Parent != model.NoTag {
			head[p], next[i] = int32(i), head[p]
		}
	}
	// Table I's order, by a stable counting sort on level: highest first.
	var at [256]int32
	for p, h := range head {
		if h >= 0 {
			at[levelOf(rows[p].Tag)]++
		}
	}
	k := int32(0)
	for l := 255; l >= 0; l-- {
		at[l], k = k, k+at[l]
	}
	order := slices.Grow(r.order[:0], int(k))[:k]
	for p, h := range head {
		if h >= 0 {
			l := levelOf(rows[p].Tag)
			order[at[l]], at[l] = int32(p), at[l]+1
		}
	}
	r.head, r.next, r.order = head, next, order
}

// Contents calls f with each row that the last ResolveConflicts listed
// under row p as its container, in row order. A row that rule II has
// since detached is still listed; its Parent no longer names row p's tag.
func (r *Result) Contents(p int, f func(c int)) {
	for c := r.head[p]; c >= 0; c = r.next[c] {
		f(int(c))
	}
}

package graph

import "spire/internal/model"

// UpdateBatch applies every reader group of one deduplicated epoch's batch
// in slice order: group i is readers[i] reading b.GroupTags(i), all at
// epoch b.Time. Every reader must be resolved, and each tag may appear
// once in the batch. A malformed tag or a second reading of a tag errors
// mid-stream, with the earlier groups already applied.
func (g *Graph) UpdateBatch(b *model.Batch, readers []*model.Reader) error {
	g.stats = UpdateStats{}
	for i := range b.Groups {
		if err := g.update(readers[i], b.GroupTags(i), b.Time); err != nil {
			return err
		}
	}
	return nil
}

// UpdateStats counts one UpdateBatch's Fig. 4 decisions for the flight
// recorder: edges created (step 2), dropped (step 3) and confirmed by a
// special reader (step 4), and the work behind them: edges visited in
// full by steps 3 and 4.
type UpdateStats struct {
	EdgesCreated, EdgesDropped, Confirmations, EdgesVisited int64
}

// LastStats returns the decisions of the most recent UpdateBatch.
func (g *Graph) LastStats() UpdateStats { return g.stats }

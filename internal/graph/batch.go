package graph

import "spire/internal/model"

// UpdateBatch applies every reader group of one epoch's batch in slice
// order: group i is readers[i] reading b.GroupTags(i), all at epoch
// b.Time. A nil readers[i] skips that group (the caller reports unknown
// readers after the epoch). A malformed tag errors mid-stream, with the
// earlier groups already applied.
func (g *Graph) UpdateBatch(b *model.Batch, readers []*model.Reader) error {
	for i := range b.Groups {
		if readers[i] == nil {
			continue
		}
		if err := g.Update(readers[i], b.GroupTags(i), b.Time); err != nil {
			return err
		}
	}
	return nil
}

package sim

import (
	"fmt"

	"spire/internal/model"
)

// PartitionZones splits the warehouse into n zones — contiguous runs of
// the location table, balanced by location count — and returns each
// zone's readers. Location order follows the physical flow (entry door,
// receiving belt, shelves, packaging area, shipping belt, exit door), so
// contiguous runs give each zone a connected stretch of the warehouse
// and objects hand off between adjacent zones as they progress.
//
// Every reader lands in exactly one zone, and every zone gets at least
// one reader.
func (s *Simulator) PartitionZones(n int) ([][]model.Reader, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: cannot partition into %d zones", n)
	}
	if n > len(s.locs) {
		return nil, fmt.Errorf("sim: %d zones for %d locations", n, len(s.locs))
	}
	zoneOf := make(map[model.LocationID]int, len(s.locs))
	for i, l := range s.locs {
		zoneOf[l.ID] = i * n / len(s.locs)
	}
	zones := make([][]model.Reader, n)
	for _, r := range s.readers {
		z, ok := zoneOf[r.Location]
		if !ok {
			return nil, fmt.Errorf("sim: reader %d at unknown location %d", r.ID, r.Location)
		}
		zones[z] = append(zones[z], r)
	}
	for z, rs := range zones {
		if len(rs) == 0 {
			return nil, fmt.Errorf("sim: zone %d has no readers", z)
		}
	}
	return zones, nil
}

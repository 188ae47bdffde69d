// Package sim emulates deployments of RFID readers in a large warehouse —
// the synthetic-workload generator of the paper's evaluation (Section VI,
// Table II).
//
// Pallets arrive at an entry door, are unpacked, and their cases are
// scanned one at a time on a receiving belt (a special, confirming
// reader), shelved for a configurable period, repackaged onto new pallets,
// re-scanned on a shipping belt (another confirming reader), and finally
// read at the exit door before leaving the world. Readers interrogate at
// configurable frequencies with configurable per-interrogation read rates;
// optional theft events remove shelved cases without a trace.
//
// The simulator maintains the ground-truth model.World alongside the
// generated raw readings, so experiments can score inference output and
// build ground-truth event streams.
package sim

import (
	"fmt"

	"spire/internal/model"
)

// Config holds the workload parameters of Table II plus the structural
// details of the warehouse.
type Config struct {
	Seed int64

	// Duration is the total simulation length in epochs (1 epoch = 1 s).
	Duration model.Epoch

	// PalletInterval is the time between pallet injections (the paper
	// sweeps 1/4 s to 600 s; sub-second injection is expressed by
	// PalletsPerArrival > 1).
	PalletInterval model.Epoch
	// PalletsPerArrival injects several pallets per arrival epoch to
	// model sub-second injection rates. Default 1.
	PalletsPerArrival int

	// CasesMin..CasesMax cases ride on each arriving pallet (paper: 5-8).
	CasesMin, CasesMax int
	// ItemsPerCase items are packed in every case (paper: 20).
	ItemsPerCase int

	// ReadRate is the per-interrogation probability that an in-range tag
	// responds (paper sweeps 0.5-1.0).
	ReadRate float64

	// NonShelfInterrogations per epoch for entry/belt/packaging/exit
	// readers (the paper's fixed 2 interrogations per second).
	NonShelfInterrogations int
	// ShelfPeriod is the shelf readers' period in epochs (paper sweeps
	// 1 s to 1 min); shelf readers interrogate once per active epoch.
	ShelfPeriod model.Epoch

	// NumShelves is the number of distinct shelf locations; co-located
	// cases on one shelf are the main source of containment noise.
	NumShelves int
	// ShelfTime is the mean shelving duration (paper: ~1 h); actual stays
	// are uniform in [0.5, 1.5] × ShelfTime.
	ShelfTime model.Epoch

	// Dwell times at the entry door and on each belt, in epochs;
	// packaging and the exit door take packDwell and exitDwell.
	EntryDwell, BeltDwell model.Epoch

	// TheftInterval, when positive, steals one random shelved case (with
	// its contents) every TheftInterval epochs — the anomaly workload of
	// Expt 4. Zero disables theft.
	TheftInterval model.Epoch

	// ItemDropRate is the per-case probability that one item falls off
	// while the case rides the receiving belt — the paper's running
	// example has exactly this (item 6 falls off case 3 on the belt and
	// stays there). Dropped items remain at the belt location,
	// uncontained, until swept to a shelf by the next passing case's
	// shelving trip. Zero disables drops.
	ItemDropRate float64

	// MisrouteInterval, when positive, diverts one case off a completing
	// outbound pallet roughly every MisrouteInterval epochs: the case is
	// pulled back onto a random shelf while its pallet ships without it.
	// Zero disables misroutes. Ground truth lands in Misroutes().
	MisrouteInterval model.Epoch

	// ColdCasePeriod, when positive, makes every ColdCasePeriod-th
	// injected case cold-chain cargo: tagged under the ColdCompany EPC
	// prefix and always shelved on the cold shelf (the first shelf).
	// Requires NumShelves >= 2 so warm shelves exist. Zero disables cold
	// cargo entirely.
	ColdCasePeriod int

	// ExcursionInterval, when positive, moves a cold case from the cold
	// shelf to a random warm shelf every ExcursionInterval epochs, holding
	// it there for ExcursionDwell epochs before wheeling it back — a
	// cold-chain excursion. Dwells longer than a detector's window are the
	// true positives of the cold-chain workload; ground truth lands in
	// Excursions(). Requires ColdCasePeriod > 0.
	ExcursionInterval, ExcursionDwell model.Epoch

	// ColdShuffleInterval, when positive, briefly relocates a cold case to
	// a warm shelf for ColdShuffleDwell epochs — benign handling churn that
	// pressures detector precision (a window shorter than the dwell plus a
	// shelf-reader period false-alarms on every shuffle). Ground truth
	// lands in ColdShuffles(). Requires ColdCasePeriod > 0.
	ColdShuffleInterval, ColdShuffleDwell model.Epoch
}

// DefaultConfig mirrors the accuracy-experiment setup of Section VI-B:
// 6 pallets/hour, 5 cases per pallet, 20 items per case, 1-hour shelving,
// read rate 0.85, shelf readers once a minute, 3-hour run.
func DefaultConfig() Config {
	return Config{
		Seed:                   1,
		Duration:               3 * 3600,
		PalletInterval:         600,
		PalletsPerArrival:      1,
		CasesMin:               5,
		CasesMax:               5,
		ItemsPerCase:           20,
		ReadRate:               0.85,
		NonShelfInterrogations: 2,
		ShelfPeriod:            60,
		NumShelves:             4,
		ShelfTime:              3600,
		EntryDwell:             4,
		BeltDwell:              3,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Duration < 1 {
		return fmt.Errorf("sim: Duration %d must be positive", c.Duration)
	}
	if c.PalletInterval < 1 {
		return fmt.Errorf("sim: PalletInterval %d must be positive", c.PalletInterval)
	}
	if c.PalletsPerArrival < 1 {
		return fmt.Errorf("sim: PalletsPerArrival %d must be positive", c.PalletsPerArrival)
	}
	if c.CasesMin < 1 || c.CasesMax < c.CasesMin {
		return fmt.Errorf("sim: cases range [%d,%d] invalid", c.CasesMin, c.CasesMax)
	}
	if c.ItemsPerCase < 0 {
		return fmt.Errorf("sim: ItemsPerCase %d must be >= 0", c.ItemsPerCase)
	}
	if c.ReadRate < 0 || c.ReadRate > 1 {
		return fmt.Errorf("sim: ReadRate %v out of [0,1]", c.ReadRate)
	}
	if c.NonShelfInterrogations < 1 {
		return fmt.Errorf("sim: NonShelfInterrogations %d must be positive", c.NonShelfInterrogations)
	}
	if c.ShelfPeriod < 1 {
		return fmt.Errorf("sim: ShelfPeriod %d must be positive", c.ShelfPeriod)
	}
	if c.NumShelves < 1 {
		return fmt.Errorf("sim: NumShelves %d must be positive", c.NumShelves)
	}
	if c.ShelfTime < 1 {
		return fmt.Errorf("sim: ShelfTime %d must be positive", c.ShelfTime)
	}
	if c.EntryDwell < 1 || c.BeltDwell < 1 {
		return fmt.Errorf("sim: dwell times must be positive")
	}
	if c.TheftInterval < 0 {
		return fmt.Errorf("sim: TheftInterval %d must be >= 0", c.TheftInterval)
	}
	if c.ItemDropRate < 0 || c.ItemDropRate > 1 {
		return fmt.Errorf("sim: ItemDropRate %v out of [0,1]", c.ItemDropRate)
	}
	if c.MisrouteInterval < 0 {
		return fmt.Errorf("sim: MisrouteInterval %d must be >= 0", c.MisrouteInterval)
	}
	if c.ColdCasePeriod < 0 {
		return fmt.Errorf("sim: ColdCasePeriod %d must be >= 0", c.ColdCasePeriod)
	}
	if c.ColdCasePeriod > 0 && c.NumShelves < 2 {
		return fmt.Errorf("sim: cold cargo needs NumShelves >= 2 (cold shelf plus warm), got %d", c.NumShelves)
	}
	for _, w := range []struct {
		interval, dwell model.Epoch
		name            string
	}{
		{c.ExcursionInterval, c.ExcursionDwell, "Excursion"},
		{c.ColdShuffleInterval, c.ColdShuffleDwell, "ColdShuffle"},
	} {
		if w.interval < 0 {
			return fmt.Errorf("sim: %sInterval %d must be >= 0", w.name, w.interval)
		}
		if w.interval > 0 {
			if c.ColdCasePeriod == 0 {
				return fmt.Errorf("sim: %sInterval needs ColdCasePeriod > 0", w.name)
			}
			if w.dwell < 1 {
				return fmt.Errorf("sim: %sDwell %d must be positive when %sInterval is set", w.name, w.dwell, w.name)
			}
		}
	}
	return nil
}

// Reader group identifiers (the paper's groups 1-6).
const (
	ReaderEntry model.ReaderID = iota + 1
	ReaderBeltIn
	ReaderPackaging
	ReaderBeltOut
	ReaderExit
	readerShelfBase // shelf readers are readerShelfBase+i
)

// Dwell times at the packaging area and the exit door, in epochs.
const (
	packDwell model.Epoch = 5
	exitDwell model.Epoch = 3
)

// ColdCompany is the EPC company prefix cold-chain cargo is tagged
// under; ordinary cargo uses a different prefix, so detectors can select
// cold cases with a company() predicate alone.
const ColdCompany uint32 = 9

// Theft records an anomaly event: the case stolen and when.
type Theft struct {
	Case model.Tag
	At   model.Epoch
}

// Misroute records a case diverted off its outbound pallet back onto a
// shelf while the pallet shipped without it.
type Misroute struct {
	Case   model.Tag
	Pallet model.Tag
	At     model.Epoch
	// Shelf is where the diverted case ended up.
	Shelf model.LocationID
}

// Excursion records a cold-chain violation: a cold case held on a warm
// shelf from At until Return.
type Excursion struct {
	Case   model.Tag
	At     model.Epoch
	Return model.Epoch
	Shelf  model.LocationID
}

// ColdShuffle records a benign brief relocation of a cold case — not an
// anomaly, but the precision pressure of the cold-chain workload.
type ColdShuffle struct {
	Case   model.Tag
	At     model.Epoch
	Return model.Epoch
	Shelf  model.LocationID
}

// Drop records an item falling off its case on the receiving belt.
type Drop struct {
	Item model.Tag
	Case model.Tag
	At   model.Epoch
}

package sim

import (
	"fmt"
	"math/rand"

	"spire/internal/epc"
	"spire/internal/model"
)

// caseState tracks one case's progress through the warehouse.
type caseState uint8

const (
	caseAtEntry caseState = iota
	caseWaitBeltIn
	caseOnBeltIn
	caseOnShelf
	caseWaitPack
	casePacked
	caseOnBeltOut
	caseAtExit
	caseStolen
	caseGone
)

// caseUnit is one case with its items.
type caseUnit struct {
	tag   model.Tag
	items []model.Tag
	state caseState
	// until is the epoch at which the current stage completes.
	until model.Epoch
	shelf model.LocationID
	// pallet is the outbound pallet once packed.
	pallet *palletUnit
	// cold marks cold-chain cargo: tagged under ColdCompany and always
	// shelved on the cold shelf.
	cold bool
}

// coldMove is a cold case temporarily relocated to a warm shelf — an
// excursion or a benign shuffle — due back at ret.
type coldMove struct {
	c   *caseUnit
	ret model.Epoch
}

// palletUnit is an outbound (newly assembled) pallet.
type palletUnit struct {
	tag   model.Tag
	cases []*caseUnit
	until model.Epoch
}

// inbound is an arriving pallet group before unpacking.
type inbound struct {
	pallet model.Tag
	cases  []*caseUnit
	until  model.Epoch
}

// Simulator generates the raw RFID stream of the warehouse and maintains
// the ground truth. It is deterministic under a fixed Config.Seed.
type Simulator struct {
	cfg       Config
	rng       *rand.Rand
	world     *model.World
	seq       *epc.Sequencer
	locs      []model.Location
	readers   []model.Reader
	now       model.Epoch
	nextEntry model.Epoch

	inbounds     []*inbound
	exitPallets  []*inbound // arriving pallets emptied and heading out
	beltInQueue  []*caseUnit
	beltInBusy   *caseUnit
	shelved      []*caseUnit
	packBuffer   []*caseUnit
	packing      []*palletUnit
	beltOutQueue []*palletUnit
	beltOutBusy  *palletUnit
	exiting      []*palletUnit

	thefts   []Theft
	drops    []Drop
	fallen   []model.Tag // items dropped on the belt, awaiting pickup
	loose    []model.Tag // fallen items now parked on shelves
	departed []model.Tag // tags departed in the current epoch

	// anomaly-scenario state (all inert unless the matching Config knob
	// is set; the golden corpus pins that inertness byte-for-byte).
	seqCold      *epc.Sequencer // cold-cargo tag allocator (ColdCompany)
	caseCount    int            // injected cases, for the cold-case period
	nextMisroute model.Epoch    // next epoch a pack completion diverts a case
	coldMoves    []*coldMove    // cold cases off on warm shelves, with due-backs
	misroutes    []Misroute
	excursions   []Excursion
	coldShuffles []ColdShuffle

	// location ids
	locEntry, locBeltIn, locPack, locBeltOut, locExit model.LocationID
	locShelf0                                         model.LocationID
}

// New builds a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		nextEntry: 1,
	}
	// Location table: entry, beltIn, shelves..., packaging, beltOut, exit.
	add := func(name string, exit bool) model.LocationID {
		id := model.LocationID(len(s.locs))
		s.locs = append(s.locs, model.Location{ID: id, Name: name, Exit: exit})
		return id
	}
	s.locEntry = add("entry-door", false)
	s.locBeltIn = add("receiving-belt", false)
	s.locShelf0 = model.LocationID(len(s.locs))
	for i := 0; i < cfg.NumShelves; i++ {
		add(fmt.Sprintf("shelf-%d", i), false)
	}
	s.locPack = add("packaging-area", false)
	s.locBeltOut = add("shipping-belt", false)
	s.locExit = add("exit-door", true)

	w, err := model.NewWorld(s.locs)
	if err != nil {
		return nil, err
	}
	s.world = w
	seq, err := epc.NewSequencer(7)
	if err != nil {
		return nil, err
	}
	s.seq = seq
	if cfg.ColdCasePeriod > 0 {
		if s.seqCold, err = epc.NewSequencer(ColdCompany); err != nil {
			return nil, err
		}
	}
	if cfg.MisrouteInterval > 0 {
		s.nextMisroute = cfg.MisrouteInterval
	}

	s.readers = []model.Reader{
		{ID: ReaderEntry, Location: s.locEntry, Period: 1, ReadRate: cfg.ReadRate},
		{ID: ReaderBeltIn, Location: s.locBeltIn, Period: 1, ReadRate: cfg.ReadRate,
			Confirming: true, ConfirmLevel: model.LevelCase},
		{ID: ReaderPackaging, Location: s.locPack, Period: 1, ReadRate: cfg.ReadRate},
		{ID: ReaderBeltOut, Location: s.locBeltOut, Period: 1, ReadRate: cfg.ReadRate,
			Confirming: true, ConfirmLevel: model.LevelPallet},
		{ID: ReaderExit, Location: s.locExit, Period: 1, ReadRate: cfg.ReadRate},
	}
	for i := 0; i < cfg.NumShelves; i++ {
		s.readers = append(s.readers, model.Reader{
			ID:       readerShelfBase + model.ReaderID(i),
			Location: s.locShelf0 + model.LocationID(i),
			Period:   cfg.ShelfPeriod,
			ReadRate: cfg.ReadRate,
		})
	}
	return s, nil
}

// World exposes the ground truth.
func (s *Simulator) World() *model.World { return s.world }

// Readers returns the reader configuration (for the inference schedule).
func (s *Simulator) Readers() []model.Reader { return s.readers }

// Locations returns the warehouse location table.
func (s *Simulator) Locations() []model.Location { return s.locs }

// EntryLocation returns the warm-up location the paper excludes from
// accuracy scoring.
func (s *Simulator) EntryLocation() model.LocationID { return s.locEntry }

// Now returns the current epoch (the epoch of the last Step).
func (s *Simulator) Now() model.Epoch { return s.now }

// Done reports whether the configured duration has elapsed.
func (s *Simulator) Done() bool { return s.now >= s.cfg.Duration }

// Thefts returns the anomaly log so far.
func (s *Simulator) Thefts() []Theft { return s.thefts }

// Drops returns the item fall-off log so far.
func (s *Simulator) Drops() []Drop { return s.drops }

// Misroutes returns the misroute anomaly log so far.
func (s *Simulator) Misroutes() []Misroute { return s.misroutes }

// Excursions returns the cold-chain excursion log so far.
func (s *Simulator) Excursions() []Excursion { return s.excursions }

// ColdShuffles returns the benign cold-case relocation log so far.
func (s *Simulator) ColdShuffles() []ColdShuffle { return s.coldShuffles }

// ShelfRange returns the contiguous shelf location id range [first, last].
func (s *Simulator) ShelfRange() (first, last model.LocationID) {
	return s.locShelf0, s.locShelf0 + model.LocationID(s.cfg.NumShelves-1)
}

// ColdShelf returns the cold-zone shelf (the first shelf); only
// meaningful when ColdCasePeriod is set.
func (s *Simulator) ColdShelf() model.LocationID { return s.locShelf0 }

// PackagingLocation returns the outbound pallet-assembly area.
func (s *Simulator) PackagingLocation() model.LocationID { return s.locPack }

// Departed returns the tags that left the world during the last Step.
func (s *Simulator) Departed() []model.Tag { return s.departed }

// Step advances the warehouse by one epoch and returns the epoch's raw
// (pre-deduplication) readings in a freshly allocated batch.
func (s *Simulator) Step() (*model.Batch, error) {
	b := new(model.Batch)
	if err := s.StepBatch(b); err != nil {
		return nil, err
	}
	return b, nil
}

// StepBatch advances the warehouse by one epoch like Step but emits the
// readings into the reused batch b — the entry point the ingest
// benchmarks use to generate million-tag epochs without allocation.
// Readers are visited in deployment order, which is ascending by ID, and
// tags in world order.
func (s *Simulator) StepBatch(b *model.Batch) error {
	s.now++
	s.world.SetNow(s.now)
	s.departed = s.departed[:0]

	if err := s.advance(); err != nil {
		return err
	}
	s.observeBatch(b)
	return nil
}

// observeBatch draws the epoch's readings into b: every active reader
// interrogates the objects at its location, each responding with the
// configured read rate per interrogation.
func (s *Simulator) observeBatch(b *model.Batch) {
	b.Reset(s.now)
	for i := range s.readers {
		r := &s.readers[i]
		if !r.Active(s.now) {
			continue
		}
		detect := s.detectProb(r)
		b.BeginReader(r.ID)
		for _, g := range s.world.At(r.Location) {
			if s.rng.Float64() < detect {
				b.Append(g)
			}
		}
	}
}

// detectProb is the chance that reader r detects a present tag in one
// epoch: a periodic (shelf) reader interrogates once, any other reader
// NonShelfInterrogations times, each with probability ReadRate.
func (s *Simulator) detectProb(r *model.Reader) float64 {
	interrogations := s.cfg.NonShelfInterrogations
	if r.Period > 1 {
		interrogations = 1
	}
	miss := 1.0
	for k := 0; k < interrogations; k++ {
		miss *= 1 - r.ReadRate
	}
	return 1 - miss
}

// advance applies the epoch's world transitions.
func (s *Simulator) advance() error {
	now := s.now

	// Pallet arrivals.
	for s.nextEntry <= now {
		for i := 0; i < s.cfg.PalletsPerArrival; i++ {
			if err := s.inject(); err != nil {
				return err
			}
		}
		s.nextEntry += s.cfg.PalletInterval
	}

	// Arriving pallets unpack after their entry dwell: cases are released
	// toward the receiving belt and the emptied pallet heads to the exit.
	keep := s.inbounds[:0]
	for _, in := range s.inbounds {
		if now < in.until {
			keep = append(keep, in)
			continue
		}
		for _, c := range in.cases {
			s.world.Uncontain(c.tag)
			c.state = caseWaitBeltIn
			s.beltInQueue = append(s.beltInQueue, c)
		}
		in.until = now + exitDwell
		if err := s.world.Move(in.pallet, s.locExit); err != nil {
			return err
		}
		s.exitPallets = append(s.exitPallets, in)
	}
	s.inbounds = keep

	// Emptied arriving pallets depart after the exit dwell.
	keepExit := s.exitPallets[:0]
	for _, in := range s.exitPallets {
		if now < in.until {
			keepExit = append(keepExit, in)
			continue
		}
		if err := s.world.Depart(in.pallet); err != nil {
			return err
		}
		s.departed = append(s.departed, in.pallet)
	}
	s.exitPallets = keepExit

	// Receiving belt: one case at a time. A case may shed one item onto
	// the belt as it passes (the running example's item 6); the fallen
	// item is picked up and shelved by whoever clears the belt next.
	if s.beltInBusy != nil && now >= s.beltInBusy.until {
		c := s.beltInBusy
		if s.cfg.ItemDropRate > 0 && len(c.items) > 0 && s.rng.Float64() < s.cfg.ItemDropRate {
			idx := s.rng.Intn(len(c.items))
			it := c.items[idx]
			c.items = append(c.items[:idx], c.items[idx+1:]...)
			s.world.Uncontain(it)
			s.fallen = append(s.fallen, it)
			s.drops = append(s.drops, Drop{Item: it, Case: c.tag, At: now})
		}
		c.state = caseOnShelf
		if c.cold {
			// Cold cargo always goes to the cold shelf.
			c.shelf = s.locShelf0
		} else {
			c.shelf = s.locShelf0 + model.LocationID(s.rng.Intn(s.cfg.NumShelves))
		}
		// float64(…) rounds the inlined Float64 product, so no
		// architecture fuses it into the addition.
		span := float64(s.cfg.ShelfTime) * (0.5 + float64(s.rng.Float64()))
		c.until = now + model.Epoch(span)
		if err := s.world.Move(c.tag, c.shelf); err != nil {
			return err
		}
		// Fallen items from earlier passes ride along to the shelf,
		// loose.
		for _, it := range s.fallen {
			if err := s.world.Move(it, c.shelf); err != nil {
				return err
			}
			s.loose = append(s.loose, it)
		}
		s.fallen = s.fallen[:0]
		s.shelved = append(s.shelved, c)
		s.beltInBusy = nil
	}
	if s.beltInBusy == nil && len(s.beltInQueue) > 0 {
		c := s.beltInQueue[0]
		s.beltInQueue = s.beltInQueue[1:]
		c.state = caseOnBeltIn
		c.until = now + s.cfg.BeltDwell
		if err := s.world.Move(c.tag, s.locBeltIn); err != nil {
			return err
		}
		s.beltInBusy = c
	}

	// Shelved cases move to the packaging area when their stay completes.
	keepShelf := s.shelved[:0]
	for _, c := range s.shelved {
		if c.state != caseOnShelf || now < c.until {
			if c.state == caseOnShelf {
				keepShelf = append(keepShelf, c)
			}
			continue
		}
		c.state = caseWaitPack
		if err := s.world.Move(c.tag, s.locPack); err != nil {
			return err
		}
		s.packBuffer = append(s.packBuffer, c)
	}
	s.shelved = keepShelf

	// Packaging: assemble a new pallet once enough cases have gathered.
	palletSize := s.cfg.CasesMin
	if s.cfg.CasesMax > s.cfg.CasesMin {
		palletSize += s.rng.Intn(s.cfg.CasesMax - s.cfg.CasesMin + 1)
	}
	for len(s.packBuffer) >= palletSize {
		group := s.packBuffer[:palletSize]
		s.packBuffer = s.packBuffer[palletSize:]
		ptag, err := s.seq.Next(model.LevelPallet)
		if err != nil {
			return err
		}
		if _, err := s.world.Enter(ptag, model.LevelPallet, s.locPack); err != nil {
			return err
		}
		p := &palletUnit{tag: ptag, cases: group, until: now + packDwell}
		for _, c := range group {
			if err := s.world.Contain(c.tag, ptag); err != nil {
				return err
			}
			c.state = casePacked
			c.pallet = p
		}
		s.packing = append(s.packing, p)
	}
	keepPack := s.packing[:0]
	for _, p := range s.packing {
		if now < p.until {
			keepPack = append(keepPack, p)
			continue
		}
		// Misroute anomaly: when one is due, a completing pallet loses a
		// case back onto a shelf and ships without it.
		if s.cfg.MisrouteInterval > 0 && now >= s.nextMisroute && len(p.cases) > 1 {
			if err := s.divert(p, now); err != nil {
				return err
			}
			s.nextMisroute = now + s.cfg.MisrouteInterval
		}
		s.beltOutQueue = append(s.beltOutQueue, p)
	}
	s.packing = keepPack

	// Shipping belt: one pallet at a time.
	if s.beltOutBusy != nil && now >= s.beltOutBusy.until {
		p := s.beltOutBusy
		p.until = now + exitDwell
		if err := s.world.Move(p.tag, s.locExit); err != nil {
			return err
		}
		for _, c := range p.cases {
			c.state = caseAtExit
		}
		s.exiting = append(s.exiting, p)
		s.beltOutBusy = nil
	}
	if s.beltOutBusy == nil && len(s.beltOutQueue) > 0 {
		p := s.beltOutQueue[0]
		s.beltOutQueue = s.beltOutQueue[1:]
		p.until = now + s.cfg.BeltDwell
		if err := s.world.Move(p.tag, s.locBeltOut); err != nil {
			return err
		}
		for _, c := range p.cases {
			c.state = caseOnBeltOut
		}
		s.beltOutBusy = p
	}

	// Exit: whole outbound groups depart.
	keepExiting := s.exiting[:0]
	for _, p := range s.exiting {
		if now < p.until {
			keepExiting = append(keepExiting, p)
			continue
		}
		for _, c := range p.cases {
			for _, it := range c.items {
				s.world.Uncontain(it)
				if err := s.world.Depart(it); err != nil {
					return err
				}
				s.departed = append(s.departed, it)
			}
			s.world.Uncontain(c.tag)
			if err := s.world.Depart(c.tag); err != nil {
				return err
			}
			s.departed = append(s.departed, c.tag)
			c.state = caseGone
		}
		if err := s.world.Depart(p.tag); err != nil {
			return err
		}
		s.departed = append(s.departed, p.tag)
	}
	s.exiting = keepExiting

	// Theft anomalies: a random shelved case vanishes with its contents.
	// The schedule is offset so theft epochs do not coincide with shelf
	// reader cycles (which would make detection trivially immediate).
	if s.cfg.TheftInterval > 0 && (now+13)%s.cfg.TheftInterval == 0 && len(s.shelved) > 0 {
		idx := s.rng.Intn(len(s.shelved))
		c := s.shelved[idx]
		s.shelved[idx] = s.shelved[len(s.shelved)-1]
		s.shelved = s.shelved[:len(s.shelved)-1]
		c.state = caseStolen
		if err := s.world.Steal(c.tag); err != nil {
			return err
		}
		s.thefts = append(s.thefts, Theft{Case: c.tag, At: now})
	}

	// Cold-chain moves: return warm-dwelling cold cases whose dwell
	// elapsed, then launch any newly due excursion (long dwell, the true
	// anomaly) or shuffle (short benign dwell). Returns are processed
	// first so a shelf freed this epoch is immediately reusable.
	if len(s.coldMoves) > 0 {
		keepMoves := s.coldMoves[:0]
		for _, m := range s.coldMoves {
			if now < m.ret {
				keepMoves = append(keepMoves, m)
				continue
			}
			// Return only while the case is still shelved off the cold
			// shelf — a theft mid-dwell wins and leaves nothing to move.
			if m.c.state == caseOnShelf && m.c.shelf != s.locShelf0 {
				m.c.shelf = s.locShelf0
				if err := s.world.Move(m.c.tag, s.locShelf0); err != nil {
					return err
				}
			}
		}
		s.coldMoves = keepMoves
	}
	// The offsets stagger the two schedules away from each other and from
	// the theft schedule, so the workloads do not collide on one epoch.
	if s.cfg.ExcursionInterval > 0 && (now+31)%s.cfg.ExcursionInterval == 0 {
		if c := s.pickColdShelved(now, s.cfg.ExcursionDwell); c != nil {
			ret, err := s.moveWarm(c, now, s.cfg.ExcursionDwell)
			if err != nil {
				return err
			}
			s.excursions = append(s.excursions, Excursion{Case: c.tag, At: now, Return: ret, Shelf: c.shelf})
		}
	}
	if s.cfg.ColdShuffleInterval > 0 && (now+47)%s.cfg.ColdShuffleInterval == 0 {
		if c := s.pickColdShelved(now, s.cfg.ColdShuffleDwell); c != nil {
			ret, err := s.moveWarm(c, now, s.cfg.ColdShuffleDwell)
			if err != nil {
				return err
			}
			s.coldShuffles = append(s.coldShuffles, ColdShuffle{Case: c.tag, At: now, Return: ret, Shelf: c.shelf})
		}
	}
	return nil
}

// divert pulls one random case off a completing pallet and returns it to
// a shelf — the misroute anomaly. Cold cases go back to the cold shelf so
// a misroute never doubles as a cold-chain excursion.
func (s *Simulator) divert(p *palletUnit, now model.Epoch) error {
	idx := s.rng.Intn(len(p.cases))
	c := p.cases[idx]
	p.cases = append(p.cases[:idx], p.cases[idx+1:]...)
	s.world.Uncontain(c.tag)
	c.pallet = nil
	c.state = caseOnShelf
	if c.cold {
		c.shelf = s.locShelf0
	} else {
		c.shelf = s.locShelf0 + model.LocationID(s.rng.Intn(s.cfg.NumShelves))
	}
	span := float64(s.cfg.ShelfTime) * (0.5 + float64(s.rng.Float64())) // unfused, as above
	c.until = now + model.Epoch(span)
	if err := s.world.Move(c.tag, c.shelf); err != nil {
		return err
	}
	s.shelved = append(s.shelved, c)
	s.misroutes = append(s.misroutes, Misroute{Case: c.tag, Pallet: p.tag, At: now, Shelf: c.shelf})
	return nil
}

// pickColdShelved selects a random cold case currently on the cold shelf
// with enough shelf time left to complete a dwell of the given length, or
// nil when none qualifies.
func (s *Simulator) pickColdShelved(now, dwell model.Epoch) *caseUnit {
	var candidates []*caseUnit
	for _, c := range s.shelved {
		if c.cold && c.state == caseOnShelf && c.shelf == s.locShelf0 && c.until > now+dwell+1 {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[s.rng.Intn(len(candidates))]
}

// moveWarm relocates a cold case to a random warm shelf for dwell epochs
// and schedules its return.
func (s *Simulator) moveWarm(c *caseUnit, now, dwell model.Epoch) (model.Epoch, error) {
	c.shelf = s.locShelf0 + 1 + model.LocationID(s.rng.Intn(s.cfg.NumShelves-1))
	if err := s.world.Move(c.tag, c.shelf); err != nil {
		return 0, err
	}
	ret := now + dwell
	s.coldMoves = append(s.coldMoves, &coldMove{c: c, ret: ret})
	return ret, nil
}

// inject creates one arriving pallet group at the entry door.
func (s *Simulator) inject() error {
	n := s.cfg.CasesMin
	if s.cfg.CasesMax > s.cfg.CasesMin {
		n += s.rng.Intn(s.cfg.CasesMax - s.cfg.CasesMin + 1)
	}
	ptag, err := s.seq.Next(model.LevelPallet)
	if err != nil {
		return err
	}
	if _, err := s.world.Enter(ptag, model.LevelPallet, s.locEntry); err != nil {
		return err
	}
	in := &inbound{pallet: ptag, until: s.now + s.cfg.EntryDwell}
	for i := 0; i < n; i++ {
		s.caseCount++
		cold := s.cfg.ColdCasePeriod > 0 && s.caseCount%s.cfg.ColdCasePeriod == 0
		caseSeq := s.seq
		if cold {
			caseSeq = s.seqCold
		}
		ctag, err := caseSeq.Next(model.LevelCase)
		if err != nil {
			return err
		}
		if _, err := s.world.Enter(ctag, model.LevelCase, s.locEntry); err != nil {
			return err
		}
		if err := s.world.Contain(ctag, ptag); err != nil {
			return err
		}
		c := &caseUnit{tag: ctag, state: caseAtEntry, cold: cold}
		for j := 0; j < s.cfg.ItemsPerCase; j++ {
			itag, err := s.seq.Next(model.LevelItem)
			if err != nil {
				return err
			}
			if _, err := s.world.Enter(itag, model.LevelItem, s.locEntry); err != nil {
				return err
			}
			if err := s.world.Contain(itag, ctag); err != nil {
				return err
			}
			c.items = append(c.items, itag)
		}
		in.cases = append(in.cases, c)
	}
	s.inbounds = append(s.inbounds, in)
	return nil
}

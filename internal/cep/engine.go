package cep

import (
	"cmp"
	"slices"
	"sync"

	"spire/internal/event"
	"spire/internal/model"
	"spire/internal/ring"
)

// Config bounds per-subscription engine state. Callers pass Config{};
// the bounds are set only by this package's tests.
type Config struct {
	// maxRuns caps the active (partial-match) runs a subscription may
	// hold; exceeding it evicts the oldest run. 0 selects defaultMaxRuns.
	maxRuns int
	// maxMatches caps a subscription's match buffer; exceeding it drops
	// the oldest match and increments the drop counter (drop-oldest
	// backpressure). 0 selects defaultMaxMatches.
	maxMatches int
}

// Default state bounds: generous enough for the warehouse detectors,
// small enough that a hostile pattern (e.g. any() anchoring a run on
// every event) cannot grow engine state with the stream.
const (
	defaultMaxRuns    = 256
	defaultMaxMatches = 1024
)

// Match is one completed pattern instance.
type Match struct {
	Sub    int         `json:"sub"`
	Object model.Tag   `json:"object"`
	Start  model.Epoch `json:"start"` // epoch of the first positive step
	At     model.Epoch `json:"at"`    // completion epoch
}

// SubStats is the accounting snapshot of one subscription.
type SubStats struct {
	ID      int    `json:"id"`
	Pattern string `json:"pattern"`
	Runs    int    `json:"runs"`    // active partial matches
	Matches uint64 `json:"matches"` // total matches ever
	Buffer  int    `json:"buffer"`  // matches currently buffered
	Dropped uint64 `json:"dropped"` // matches dropped by backpressure
	Evicted uint64 `json:"evicted"` // runs evicted by the cap
}

// run is one active partial match. Runs are linked into two intrusive
// lists — the per-object list event processing walks, and the
// per-subscription list (creation order) the cap evicts from — and a
// windowed run sits in its window's deadline FIFO. Dead runs are
// unlinked immediately but may linger in the FIFO until popped; they are
// recycled through the free list once no structure references them.
type run struct {
	sub int32 // row of the subscription in Engine.rows
	obj model.Tag

	t1       model.Epoch
	deadline model.Epoch // InfiniteEpoch when the pattern is unbounded
	seq      uint64      // start order: breaks deadline ties across FIFOs
	idx      int         // next unsatisfied step
	binds    [MaxSteps]binding

	dead   bool
	queued bool // in a deadline FIFO

	objPrev, objNext *run
	subPrev, subNext *run
	free             *run
}

// subscription is one row of Engine.rows: a shared template, the
// subscription's tag constants (an offset into Engine.consts) and its own
// run list, counters and match buffer.
type subscription struct {
	tmpl *template // nil once unsubscribed
	fn   func(Match)

	// Creation-order run list: head is the oldest (the eviction victim).
	runHead, runTail *run

	// matches is allocated at the first match; overwrites count as
	// backpressure drops.
	matches *ring.Ring[Match]
	total   uint64
	evicted uint64

	id     int
	nrun   int32
	consts int32 // offset of the tag constants in Engine.consts
}

// template is a compiled pattern shape, shared by every subscription
// whose source differs from it only in lifted tag(N) literals.
type template struct {
	Pattern
	fifo *deadlineFIFO // the deadline FIFO of Within; nil when unbounded
	live int           // live subscriptions using it
}

// deadlineFIFO queues the runs of one WITHIN window in start order. The
// clock never goes back, so start order is also (deadline, seq) order.
type deadlineFIFO struct {
	within model.Epoch
	runs   []*run
	head   int
}

func (f *deadlineFIFO) push(r *run) {
	// Reuse the popped prefix rather than grow while it is most of the
	// slice.
	if len(f.runs) == cap(f.runs) && 2*f.head >= len(f.runs) && f.head > 0 {
		n := copy(f.runs, f.runs[f.head:])
		clear(f.runs[n:])
		f.runs, f.head = f.runs[:n], 0
	}
	f.runs = append(f.runs, r)
}

// peek returns the earliest run, or nil.
func (f *deadlineFIFO) peek() *run {
	if f.head < len(f.runs) {
		return f.runs[f.head]
	}
	return nil
}

func (f *deadlineFIFO) pop() *run {
	r := f.runs[f.head]
	f.runs[f.head] = nil
	if f.head++; f.head == len(f.runs) {
		f.runs, f.head = f.runs[:0], 0
	}
	return r
}

// Engine evaluates subscriptions incrementally over the output event
// stream. All methods are safe for concurrent use (one mutex): the
// pipeline loop feeds epochs while HTTP handlers subscribe and read
// matches.
type Engine struct {
	mu     sync.Mutex
	cfg    Config
	now    model.Epoch
	nextID int

	// rows holds the subscriptions ascending by id. Unsubscribed rows
	// stay, dead, until they outnumber the live ones; compact then drops
	// them and renumbers runs and indexes.
	rows    []subscription
	live    int
	deadSub int
	// tmpls interns templates by source text with the lifted literals cut
	// out (parsed.appendKey); consts holds every row's tag constants.
	tmpls  map[string]*template
	consts []model.Tag

	// byKind indexes rows by the kinds their first step can match, so an
	// event only touches subscriptions it could anchor.
	//
	// Subscriptions whose first step names an object (tag(N)) are
	// discriminated further, by (kind, tag) in byKindTag: an event then
	// visits only the subscriptions anchored on its own object, so ten
	// thousand per-tag watches cost a dispatch one map probe, not ten
	// thousand first-step rejections. A value is the one row anchored on
	// that tag, or ^i when several are: they are anchorLists[i].
	// Tag-agnostic first steps stay in byKind. Dead rows are skipped.
	byKind      [6][]int32
	byKindTag   [6]map[model.Tag]int32
	anchorLists [][]int32

	objRuns map[model.Tag]*run // head of the per-object run list
	fifos   []*deadlineFIFO    // one per distinct WITHIN
	due     []*deadlineFIFO    // the non-empty FIFOs, a min-heap on their heads
	freeRun *run
	nrun    int
	runSeq  uint64 // seq of the last started run

	tel *Instruments

	// testEvict observes cap evictions (oldest-run property test): the
	// evicted run's anchor epoch and the oldest retained run's.
	testEvict func(evicted, oldestRetained model.Epoch)
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.maxRuns <= 0 {
		cfg.maxRuns = defaultMaxRuns
	}
	if cfg.maxMatches <= 0 {
		cfg.maxMatches = defaultMaxMatches
	}
	return &Engine{
		cfg:     cfg,
		tmpls:   make(map[string]*template),
		objRuns: make(map[model.Tag]*run),
	}
}

// Subscribe parses src and registers it, returning the subscription id.
func (e *Engine) Subscribe(src string) (int, error) {
	return e.SubscribeFunc(src, nil)
}

// SubscribeFunc additionally registers a callback invoked inline (under
// the engine lock, on the dispatching goroutine) for every match.
func (e *Engine) SubscribeFunc(src string, fn func(Match)) (int, error) {
	var c parsed
	if err := c.parse(src); err != nil {
		return 0, err
	}
	var buf [128]byte
	key := c.appendKey(buf[:0], src)
	e.mu.Lock()
	defer e.mu.Unlock()
	t := e.tmpls[string(key)]
	if t == nil {
		t = &template{Pattern: c.template(src)}
		if t.Within > 0 {
			t.fifo = e.fifoFor(t.Within)
		}
		e.tmpls[string(key)] = t
	}
	t.live++
	e.nextID++
	e.rows = append(e.rows, subscription{tmpl: t, fn: fn, id: e.nextID, consts: int32(len(e.consts))})
	e.consts = c.appendConsts(e.consts)
	e.index(int32(len(e.rows) - 1))
	e.live++
	if e.tel != nil {
		e.tel.Subs.Set(int64(e.live))
	}
	return e.nextID, nil
}

// fifoFor returns the deadline FIFO of window w, adding it if new.
func (e *Engine) fifoFor(w model.Epoch) *deadlineFIFO {
	for _, f := range e.fifos {
		if f.within == w {
			return f
		}
	}
	f := &deadlineFIFO{within: w}
	e.fifos = append(e.fifos, f)
	return f
}

// index adds row i to the anchor indexes.
func (e *Engine) index(i int32) {
	s := &e.rows[i]
	tag := s.tmpl.tag(0, e.consts[s.consts:])
	for k := event.StartLocation; k <= event.Missing; k++ {
		if !s.tmpl.Steps[0].Kinds.Has(k) {
			continue
		}
		if tag == model.NoTag {
			e.byKind[k] = append(e.byKind[k], i)
			continue
		}
		m := e.byKindTag[k]
		if m == nil {
			m = make(map[model.Tag]int32)
			e.byKindTag[k] = m
		}
		switch v, ok := m[tag]; {
		case !ok:
			m[tag] = i
		case v >= 0:
			e.anchorLists = append(e.anchorLists, []int32{v, i})
			m[tag] = ^int32(len(e.anchorLists) - 1)
		default:
			e.anchorLists[^v] = append(e.anchorLists[^v], i)
		}
	}
}

// find returns the live row of id.
func (e *Engine) find(id int) (*subscription, bool) {
	i, ok := slices.BinarySearchFunc(e.rows, id, func(s subscription, id int) int { return cmp.Compare(s.id, id) })
	if !ok || e.rows[i].tmpl == nil {
		return nil, false
	}
	return &e.rows[i], true
}

// Unsubscribe removes a subscription and frees its runs; unknown ids are
// ignored.
func (e *Engine) Unsubscribe(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.find(id)
	if !ok {
		return
	}
	for r := s.runHead; r != nil; {
		next := r.subNext
		e.killRun(r)
		r = next
	}
	s.tmpl.live--
	*s = subscription{id: id}
	e.live--
	e.deadSub++
	// Compact once dead rows dominate, so subscription churn cannot grow
	// the rows, indexes or templates without bound.
	if e.deadSub > e.live+16 {
		e.compact()
	}
	if e.tel != nil {
		e.tel.Subs.Set(int64(e.live))
		e.tel.Runs.Set(int64(e.nrun))
	}
}

// compact drops the dead rows, the templates no row uses and the FIFOs
// no template uses, and rebuilds the constants and anchor indexes.
func (e *Engine) compact() {
	rows := make([]subscription, 0, e.live)
	consts := make([]model.Tag, 0, len(e.consts))
	for _, s := range e.rows {
		if s.tmpl == nil {
			continue
		}
		n := len(s.tmpl.pieces) - 1
		off := s.consts
		s.consts = int32(len(consts))
		consts = append(consts, e.consts[off:int(off)+n]...)
		for r := s.runHead; r != nil; r = r.subNext {
			r.sub = int32(len(rows))
		}
		rows = append(rows, s)
	}
	e.rows, e.consts = rows, consts
	used := make(map[*deadlineFIFO]bool, len(e.fifos))
	for key, t := range e.tmpls {
		if t.live == 0 {
			delete(e.tmpls, key)
		} else if t.fifo != nil {
			used[t.fifo] = true
		}
	}
	// A dropped FIFO holds only dead runs: the subscriptions of its window
	// are gone, and killing them unlinked their runs. It stays in due until
	// expire has popped them.
	e.fifos = slices.DeleteFunc(e.fifos, func(f *deadlineFIFO) bool { return !used[f] })
	e.byKind, e.byKindTag, e.anchorLists = [6][]int32{}, [6]map[model.Tag]int32{}, nil
	for i := range e.rows {
		e.index(int32(i))
	}
	e.deadSub = 0
}

// Epoch advances the engine clock to now and feeds it one whole epoch:
// the runs whose windows closed before now resolve first, then the
// epoch's events run in stream order, then the runs whose windows close
// at now resolve. Every event of epoch now must arrive in this one call.
// The clock must not go backwards; a caller may skip epochs without
// events, since the matches and their order do not depend on which
// empty epochs are reported.
func (e *Engine) Epoch(now model.Epoch, events []event.Event) {
	e.mu.Lock()
	if now > e.now {
		e.now = now
	}
	e.expire(e.now - 1)
	for i := range events {
		e.process(e.now, events[i])
	}
	e.expire(e.now)
	e.mu.Unlock()
}

// Matches copies the buffered matches of a subscription (oldest first)
// along with its stats; ok is false for unknown ids.
func (e *Engine) Matches(id int) (ms []Match, st SubStats, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, found := e.find(id)
	if !found {
		return nil, SubStats{}, false
	}
	if s.matches == nil {
		return []Match{}, e.statsOf(s), true
	}
	return s.matches.AppendTo(make([]Match, 0, s.matches.Len())), e.statsOf(s), true
}

// Subscriptions lists the live subscriptions' stats, ascending by id.
func (e *Engine) Subscriptions() []SubStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SubStats, 0, e.live)
	for i := range e.rows {
		if s := &e.rows[i]; s.tmpl != nil {
			out = append(out, e.statsOf(s))
		}
	}
	return out
}

func (e *Engine) statsOf(s *subscription) SubStats {
	st := SubStats{
		ID: s.id, Pattern: s.tmpl.text(e.consts[s.consts:]), Runs: int(s.nrun),
		Matches: s.total, Evicted: s.evicted,
	}
	if s.matches != nil {
		st.Buffer, st.Dropped = s.matches.Len(), uint64(s.matches.Overwritten())
	}
	return st
}

// Stats summarizes engine-wide state (bounded-state tests).
type Stats struct {
	Subs, Runs int
	Queued     int // deadline FIFO entries, dead runs not yet popped included
}

// engineStats returns engine-wide state sizes.
func (e *Engine) engineStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Stats{Subs: e.live, Runs: e.nrun}
	for _, f := range e.due {
		st.Queued += len(f.runs) - f.head
	}
	return st
}

// process runs one event through the existing runs of its object, then
// considers anchoring new runs. Existing runs advance first: a freshly
// anchored run starts matching from the *next* event (skip-till-next-
// match), so the anchoring event cannot satisfy two steps at once.
func (e *Engine) process(now model.Epoch, ev event.Event) {
	if ev.Object == model.NoTag {
		return
	}
	if e.tel != nil {
		e.tel.Events.Inc()
	}
	for r := e.objRuns[ev.Object]; r != nil; {
		next := r.objNext // advanceRun may unlink r
		e.advanceRun(r, now, ev)
		r = next
	}
	for _, i := range e.byKind[ev.Kind] {
		e.anchor(i, now, ev)
	}
	if v, ok := e.byKindTag[ev.Kind][ev.Object]; ok && v >= 0 {
		e.anchor(v, now, ev)
	} else if ok {
		for _, i := range e.anchorLists[^v] {
			e.anchor(i, now, ev)
		}
	}
}

// anchor tries to start (or, for a single-step pattern, complete) the
// subscription of row i on the event.
func (e *Engine) anchor(i int32, now model.Epoch, ev event.Event) {
	s := &e.rows[i]
	if s.tmpl == nil || !s.tmpl.matches(0, ev, nil, e.consts[s.consts:]) {
		return
	}
	if len(s.tmpl.Steps) == 1 {
		// Single-step pattern: the anchor is the whole match.
		e.emit(s, Match{Sub: s.id, Object: ev.Object, Start: now, At: now})
		return
	}
	e.startRun(i, now, ev)
}

// advanceRun applies one event to one run. Precedence when the current
// step is a non-trailing NOT and the event satisfies both the negated
// step and the following positive step: the sequence advances (SASE's
// semantics — negation excludes *other* events between the positives).
func (e *Engine) advanceRun(r *run, now model.Epoch, ev event.Event) {
	if r.dead {
		return
	}
	s := &e.rows[r.sub]
	p, consts := &s.tmpl.Pattern, e.consts[s.consts:]
	st := &p.Steps[r.idx]
	if st.Neg {
		if r.idx == len(p.Steps)-1 {
			if p.matches(r.idx, ev, &r.binds, consts) {
				e.killRun(r) // absence violated
			}
			return
		}
		if p.matches(r.idx+1, ev, &r.binds, consts) {
			bind(&r.binds, r.idx+1, ev)
			r.idx += 2
			if r.idx >= len(p.Steps) {
				e.complete(r, now)
			}
			return
		}
		if p.matches(r.idx, ev, &r.binds, consts) {
			e.killRun(r)
		}
		return
	}
	if p.matches(r.idx, ev, &r.binds, consts) {
		bind(&r.binds, r.idx, ev)
		r.idx++
		if r.idx >= len(p.Steps) {
			e.complete(r, now)
		}
	}
}

// startRun anchors a new run of row i at the event, evicting the
// subscription's oldest run when the cap is exceeded.
func (e *Engine) startRun(i int32, now model.Epoch, ev event.Event) {
	s := &e.rows[i]
	r := e.freeRun
	if r != nil {
		e.freeRun = r.free
		*r = run{}
	} else {
		r = &run{}
	}
	e.runSeq++
	r.sub = i
	r.obj = ev.Object
	r.t1 = now
	r.seq = e.runSeq
	r.idx = 1
	bind(&r.binds, 0, ev)
	if f := s.tmpl.fifo; f != nil {
		r.deadline = now + f.within
		r.queued = true
		f.push(r)
		if f.head == len(f.runs)-1 {
			e.duePush(f) // r is its only run
		}
	} else {
		r.deadline = model.InfiniteEpoch
	}

	// Link: per-object list. Head insertion is O(1); runs are mutually
	// independent, so their relative order within one object is free.
	if head := e.objRuns[ev.Object]; head != nil {
		r.objNext, head.objPrev = head, r
	}
	e.objRuns[ev.Object] = r
	// Link: per-subscription creation-order list.
	if s.runTail == nil {
		s.runHead, s.runTail = r, r
	} else {
		s.runTail.subNext, r.subPrev = r, s.runTail
		s.runTail = r
	}
	s.nrun++
	e.nrun++

	if int(s.nrun) > e.cfg.maxRuns {
		victim := s.runHead // oldest by construction: t1 is monotonic
		s.evicted++
		if e.tel != nil {
			e.tel.Evicted.Inc()
		}
		if e.testEvict != nil {
			e.testEvict(victim.t1, victim.subNext.t1)
		}
		e.killRun(victim)
	}
	if e.tel != nil {
		e.tel.Runs.Set(int64(e.nrun))
	}
}

// complete emits the match of a fully-satisfied run and retires it.
func (e *Engine) complete(r *run, at model.Epoch) {
	s := &e.rows[r.sub]
	e.emit(s, Match{Sub: s.id, Object: r.obj, Start: r.t1, At: at})
	e.killRun(r)
}

// resolve settles a run whose window has closed: a pending trailing NOT
// becomes a match (the absence held through the window), anything else
// just dies.
func (e *Engine) resolve(r *run) {
	s := &e.rows[r.sub]
	if p := &s.tmpl.Pattern; r.idx == len(p.Steps)-1 && p.Steps[r.idx].Neg {
		e.emit(s, Match{Sub: s.id, Object: r.obj, Start: r.t1, At: r.deadline})
	}
	e.killRun(r)
}

// emit appends a match to the subscription's bounded ring, which grows
// geometrically up to the cap and then drops the oldest buffered match
// on overflow.
func (e *Engine) emit(s *subscription, m Match) {
	s.total++
	if e.tel != nil {
		e.tel.Matches.Inc()
	}
	if s.matches == nil {
		buf := ring.New[Match](e.cfg.maxMatches)
		s.matches = &buf
	}
	if s.matches.Push(m) && e.tel != nil {
		e.tel.Dropped.Inc()
	}
	if s.fn != nil {
		s.fn(m)
	}
}

// killRun unlinks a run from the object and subscription lists and marks
// it dead. Recycling waits until its FIFO no longer references it.
func (e *Engine) killRun(r *run) {
	if r.dead {
		return
	}
	r.dead = true
	// Object list.
	if r.objPrev != nil {
		r.objPrev.objNext = r.objNext
	} else if r.objNext != nil {
		e.objRuns[r.obj] = r.objNext
	} else {
		delete(e.objRuns, r.obj)
	}
	if r.objNext != nil {
		r.objNext.objPrev = r.objPrev
	}
	r.objPrev, r.objNext = nil, nil
	// Subscription list.
	s := &e.rows[r.sub]
	if r.subPrev != nil {
		r.subPrev.subNext = r.subNext
	} else {
		s.runHead = r.subNext
	}
	if r.subNext != nil {
		r.subNext.subPrev = r.subPrev
	} else {
		s.runTail = r.subPrev
	}
	r.subPrev, r.subNext = nil, nil
	s.nrun--
	e.nrun--
	if !r.queued {
		e.recycle(r)
	}
	if e.tel != nil {
		e.tel.Runs.Set(int64(e.nrun))
	}
}

func (e *Engine) recycle(r *run) {
	r.free = e.freeRun
	e.freeRun = r
}

// expire pops every run whose deadline is at or before t, in (deadline,
// seq) order: each FIFO is in that order, and the due heap yields the
// FIFO with the earliest head. Epoch calls it before an epoch's events
// with t = now-1 and after them with t = now: the clock is monotonic, so
// nothing inside those windows can still arrive.
func (e *Engine) expire(t model.Epoch) {
	for len(e.due) > 0 && e.due[0].peek().deadline <= t {
		r := e.due[0].pop()
		e.dueFix()
		r.queued = false
		if r.dead {
			e.recycle(r) // killRun left it for the FIFO to release
			continue
		}
		e.resolve(r) // kills the run, which recycles it
	}
}

// duePush adds a FIFO that has just become non-empty to the due heap.
func (e *Engine) duePush(f *deadlineFIFO) {
	e.due = append(e.due, f)
	for i := len(e.due) - 1; i > 0; {
		parent := (i - 1) / 2
		if !e.due[i].peek().before(e.due[parent].peek()) {
			return
		}
		e.due[parent], e.due[i] = e.due[i], e.due[parent]
		i = parent
	}
}

// dueFix restores the due heap after a pop from its top FIFO, removing
// the FIFO once empty.
func (e *Engine) dueFix() {
	if e.due[0].peek() == nil {
		last := len(e.due) - 1
		e.due[0] = e.due[last]
		e.due[last] = nil
		e.due = e.due[:last]
	}
	for i := 0; ; {
		l, rt, small := 2*i+1, 2*i+2, i
		if l < len(e.due) && e.due[l].peek().before(e.due[small].peek()) {
			small = l
		}
		if rt < len(e.due) && e.due[rt].peek().before(e.due[small].peek()) {
			small = rt
		}
		if small == i {
			return
		}
		e.due[i], e.due[small] = e.due[small], e.due[i]
		i = small
	}
}

// before orders runs by deadline, then by start order, so runs sharing a
// deadline resolve in the order they started.
func (r *run) before(o *run) bool {
	if r.deadline != o.deadline {
		return r.deadline < o.deadline
	}
	return r.seq < o.seq
}

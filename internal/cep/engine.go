package cep

import (
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
// per-subscription list (creation order) the cap evicts from — plus at
// most one deadline-heap slot. Dead runs are unlinked immediately but may
// linger in the heap until popped; they are recycled through the free
// list once no structure references them.
type run struct {
	sub *subscription
	obj model.Tag

	t1       model.Epoch
	deadline model.Epoch // InfiniteEpoch when the pattern is unbounded
	seq      uint64      // start order: breaks deadline ties in the heap
	idx      int         // next unsatisfied step
	binds    [MaxSteps]binding

	dead   bool
	inHeap bool

	objPrev, objNext *run
	subPrev, subNext *run
	free             *run
}

type subscription struct {
	id   int
	pat  *Pattern
	fn   func(Match) // optional live-match callback
	dead bool

	// Creation-order run list: head is the oldest (the eviction victim).
	runHead, runTail *run
	nrun             int

	matches ring.Ring[Match] // overwrites count as backpressure drops
	total   uint64
	evicted uint64
}

// Engine evaluates subscriptions incrementally over the output event
// stream. All methods are safe for concurrent use (one mutex): the
// pipeline loop feeds epochs while HTTP handlers subscribe and read
// matches.
type Engine struct {
	mu      sync.Mutex
	cfg     Config
	now     model.Epoch
	subs    map[int]*subscription
	nextID  int
	deadSub int

	// byKind indexes live subscriptions by the kinds their first step can
	// match, so an event only touches subscriptions it could anchor.
	// Entries for dead subscriptions are skipped lazily and compacted when
	// they outnumber the live ones.
	//
	// Subscriptions whose first step names a specific object (obj=N) are
	// discriminated further, by (kind, tag) in byKindTag: an event then
	// visits only the subscriptions anchored on its own object, so ten
	// thousand per-tag watches cost a dispatch one map probe, not ten
	// thousand first-step rejections. Tag-agnostic first steps stay in
	// byKind.
	byKind    [6][]*subscription
	byKindTag [6]map[model.Tag][]*subscription

	objRuns map[model.Tag]*run // head of the per-object run list
	heap    []*run             // min-heap on (deadline, seq)
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
		subs:    make(map[int]*subscription),
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
	p, err := Parse(src)
	if err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextID++
	s := &subscription{id: e.nextID, pat: p, fn: fn, matches: ring.New[Match](e.cfg.maxMatches)}
	e.subs[s.id] = s
	for k := event.StartLocation; k <= event.Missing; k++ {
		if !p.Steps[0].Kinds.Has(k) {
			continue
		}
		if tag := p.Steps[0].Tag; tag != model.NoTag {
			if e.byKindTag[k] == nil {
				e.byKindTag[k] = make(map[model.Tag][]*subscription)
			}
			e.byKindTag[k][tag] = append(e.byKindTag[k][tag], s)
		} else {
			e.byKind[k] = append(e.byKind[k], s)
		}
	}
	if e.tel != nil {
		e.tel.Subs.Set(int64(len(e.subs)))
	}
	return s.id, nil
}

// Unsubscribe removes a subscription and frees its runs; unknown ids are
// ignored.
func (e *Engine) Unsubscribe(id int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.subs[id]
	if !ok {
		return
	}
	delete(e.subs, id)
	s.dead = true
	e.deadSub++
	for r := s.runHead; r != nil; {
		next := r.subNext
		e.killRun(r)
		r = next
	}
	// Compact the kind indexes once dead entries dominate, so
	// subscription churn cannot grow them without bound.
	if e.deadSub > len(e.subs)+16 {
		for k := range e.byKind {
			live := e.byKind[k][:0]
			for _, s := range e.byKind[k] {
				if !s.dead {
					live = append(live, s)
				}
			}
			// Clear the tail so dead subscriptions are collectable.
			for i := len(live); i < len(e.byKind[k]); i++ {
				e.byKind[k][i] = nil
			}
			e.byKind[k] = live
		}
		for k := range e.byKindTag {
			for tag, subs := range e.byKindTag[k] {
				live := subs[:0]
				for _, s := range subs {
					if !s.dead {
						live = append(live, s)
					}
				}
				if len(live) == 0 {
					delete(e.byKindTag[k], tag)
					continue
				}
				for i := len(live); i < len(subs); i++ {
					subs[i] = nil
				}
				e.byKindTag[k][tag] = live
			}
		}
		e.deadSub = 0
	}
	if e.tel != nil {
		e.tel.Subs.Set(int64(len(e.subs)))
		e.tel.Runs.Set(int64(e.nrun))
	}
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
	s, found := e.subs[id]
	if !found {
		return nil, SubStats{}, false
	}
	return s.matches.AppendTo(make([]Match, 0, s.matches.Len())), e.statsOf(s), true
}

// Subscriptions lists the live subscriptions' stats, ascending by id.
func (e *Engine) Subscriptions() []SubStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]SubStats, 0, len(e.subs))
	for _, s := range e.subs {
		out = append(out, e.statsOf(s))
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (e *Engine) statsOf(s *subscription) SubStats {
	return SubStats{
		ID: s.id, Pattern: s.pat.String(), Runs: s.nrun,
		Matches: s.total, Buffer: s.matches.Len(), Dropped: uint64(s.matches.Overwritten()), Evicted: s.evicted,
	}
}

// Stats summarizes engine-wide state (bounded-state tests).
type Stats struct {
	Subs, Runs, Heap int
}

// EngineStats returns engine-wide state sizes.
func (e *Engine) EngineStats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{Subs: len(e.subs), Runs: e.nrun, Heap: len(e.heap)}
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
	e.anchor(e.byKind[ev.Kind], now, ev)
	if m := e.byKindTag[ev.Kind]; m != nil {
		e.anchor(m[ev.Object], now, ev)
	}
}

// anchor tries to start (or, for single-step patterns, complete) each
// candidate subscription on the event.
func (e *Engine) anchor(subs []*subscription, now model.Epoch, ev event.Event) {
	for _, s := range subs {
		if s.dead || !s.pat.matches(0, ev, nil) {
			continue
		}
		if len(s.pat.Steps) == 1 {
			// Single-step pattern: the anchor is the whole match.
			e.emit(s, Match{Sub: s.id, Object: ev.Object, Start: now, At: now})
			continue
		}
		e.startRun(s, now, ev)
	}
}

// advanceRun applies one event to one run. Precedence when the current
// step is a non-trailing NOT and the event satisfies both the negated
// step and the following positive step: the sequence advances (SASE's
// semantics — negation excludes *other* events between the positives).
func (e *Engine) advanceRun(r *run, now model.Epoch, ev event.Event) {
	if r.dead {
		return
	}
	p := r.sub.pat
	st := &p.Steps[r.idx]
	if st.Neg {
		if r.idx == len(p.Steps)-1 {
			if p.matches(r.idx, ev, &r.binds) {
				e.killRun(r) // absence violated
			}
			return
		}
		if p.matches(r.idx+1, ev, &r.binds) {
			bind(&r.binds, r.idx+1, ev)
			r.idx += 2
			if r.idx >= len(p.Steps) {
				e.complete(r, now)
			}
			return
		}
		if p.matches(r.idx, ev, &r.binds) {
			e.killRun(r)
		}
		return
	}
	if p.matches(r.idx, ev, &r.binds) {
		bind(&r.binds, r.idx, ev)
		r.idx++
		if r.idx >= len(p.Steps) {
			e.complete(r, now)
		}
	}
}

// startRun anchors a new run at the event, evicting the subscription's
// oldest run when the cap is exceeded.
func (e *Engine) startRun(s *subscription, now model.Epoch, ev event.Event) {
	r := e.freeRun
	if r != nil {
		e.freeRun = r.free
		*r = run{}
	} else {
		r = &run{}
	}
	e.runSeq++
	r.sub = s
	r.obj = ev.Object
	r.t1 = now
	r.seq = e.runSeq
	r.idx = 1
	bind(&r.binds, 0, ev)
	if s.pat.Within > 0 {
		r.deadline = now + s.pat.Within
		e.heapPush(r)
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

	if s.nrun > e.cfg.maxRuns {
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
	e.emit(r.sub, Match{Sub: r.sub.id, Object: r.obj, Start: r.t1, At: at})
	e.killRun(r)
}

// resolve settles a run whose window has closed: a pending trailing NOT
// becomes a match (the absence held through the window), anything else
// just dies.
func (e *Engine) resolve(r *run) {
	p := r.sub.pat
	if r.idx == len(p.Steps)-1 && p.Steps[r.idx].Neg {
		e.emit(r.sub, Match{Sub: r.sub.id, Object: r.obj, Start: r.t1, At: r.deadline})
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
	if s.matches.Push(m) && e.tel != nil {
		e.tel.Dropped.Inc()
	}
	if s.fn != nil {
		s.fn(m)
	}
}

// killRun unlinks a run from the object and subscription lists and marks
// it dead. Recycling waits until the heap no longer references it.
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
	s := r.sub
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
	if !r.inHeap {
		e.recycle(r)
	}
	if e.tel != nil {
		e.tel.Runs.Set(int64(e.nrun))
	}
}

func (e *Engine) recycle(r *run) {
	r.sub = nil
	r.free = e.freeRun
	e.freeRun = r
}

// expire pops every run whose deadline is at or before t. Epoch calls it
// before an epoch's events with t = now-1 and after them with t = now:
// the clock is monotonic, so nothing inside those windows can still
// arrive.
func (e *Engine) expire(t model.Epoch) {
	for len(e.heap) > 0 && e.heap[0].deadline <= t {
		r := e.heapPop()
		if r.dead {
			e.recycle(r) // killRun left it for the heap to release
			continue
		}
		e.resolve(r) // kills the run, which recycles it (inHeap is off)
	}
}

// before orders the deadline heap: by deadline, then by start order, so
// runs sharing a deadline resolve in the order they started whatever
// shape the heap's push and pop history gave it.
func (r *run) before(o *run) bool {
	if r.deadline != o.deadline {
		return r.deadline < o.deadline
	}
	return r.seq < o.seq
}

// heapPush/heapPop implement the deadline min-heap inline (container/heap
// would box every operation through an interface).
func (e *Engine) heapPush(r *run) {
	r.inHeap = true
	e.heap = append(e.heap, r)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].before(e.heap[parent]) {
			break
		}
		e.heap[parent], e.heap[i] = e.heap[i], e.heap[parent]
		i = parent
	}
}

func (e *Engine) heapPop() *run {
	r := e.heap[0]
	last := len(e.heap) - 1
	e.heap[0] = e.heap[last]
	e.heap[last] = nil
	e.heap = e.heap[:last]
	i := 0
	for {
		l, rt := 2*i+1, 2*i+2
		small := i
		if l < len(e.heap) && e.heap[l].before(e.heap[small]) {
			small = l
		}
		if rt < len(e.heap) && e.heap[rt].before(e.heap[small]) {
			small = rt
		}
		if small == i {
			break
		}
		e.heap[i], e.heap[small] = e.heap[small], e.heap[i]
		i = small
	}
	r.inHeap = false
	return r
}

// Package cep is a SASE-style complex-event subscription engine over
// SPIRE's compressed output stream. Subscriptions are written in a small
// pattern language —
//
//	SEQ(step, step, ...) WITHIN <epochs>
//
// where each step is a conjunction of predicate atoms over one event,
// optionally prefixed with NOT (negation between steps, or trailing
// absence detection). Patterns compile to nondeterministic finite automata
// evaluated incrementally one event at a time, with runs implicitly
// partitioned by the event's object tag and per-subscription state bounded
// by an active-run cap with oldest-run eviction (SASE's partitioned
// skip-till-next-match semantics; see PAPERS.md, "High-Performance Complex
// Event Processing over Streams").
//
// Atoms:
//
//	start(L)      StartLocation at L      end(L)       EndLocation at L
//	start(A..B)   location in [A,B]       start(!A..B) location outside [A,B]
//	start(@2)     location bound by step 2 (start(!@2): differs from it)
//	contain(T)    StartContainment in T   uncontain(T) EndContainment from T
//	contain(@2)   container bound by step 2
//	missing()     Missing report          any()        any event
//	tag(T)        object is tag T         level(case)  EPC level (item|case|pallet)
//	company(N)    EPC company prefix N
//
// start/end/contain/uncontain with empty parentheses match their kind at
// any location/container. A step with no kind atom matches every kind.
// A step holds at most one atom of each kind: a second event-kind, tag,
// level or company atom in one step is a parse error.
// The first step must be positive; NOT may not appear twice in a row; a
// trailing NOT requires a WITHIN window (the absence is detected when the
// window closes).
package cep

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"spire/internal/epc"
	"spire/internal/event"
	"spire/internal/model"
)

// MaxSteps bounds the pattern length so per-run binding state stays a
// fixed-size array (no allocation per run).
const MaxSteps = 8

// KindSet is a bitmask over event kinds; zero matches every kind.
type KindSet uint8

// Has reports whether k is in the set (an empty set has every kind).
func (s KindSet) Has(k event.Kind) bool {
	return s == 0 || s&(1<<uint(k)) != 0
}

func kindBit(k event.Kind) KindSet { return 1 << uint(k) }

// Condition modes for the location/container argument of a kind atom.
const (
	condAny   = iota // no constraint
	condRange        // value in [Lo, Hi] (negated: outside)
	condRef          // value equals the binding of step Ref (negated: differs)
	condEq           // container equals Tag
)

// LocCond constrains the location of a location-kind event.
type LocCond struct {
	Mode   int
	Neg    bool
	Lo, Hi model.LocationID
	Ref    int // 0-based step index for condRef
}

// ContCond constrains the container of a containment-kind event.
type ContCond struct {
	Mode int
	Tag  model.Tag
	Ref  int
}

// Step is one conjunction of atoms, optionally negated.
type Step struct {
	Neg bool

	Kinds KindSet
	Tag   model.Tag // non-zero: object must equal
	// tagConst, when non-zero, is the 1-based index of the step's
	// tag(N) constant in its subscription's constants vector; Tag is
	// then NoTag. Only engine templates lift constants out.
	tagConst   int8
	HasLevel   bool
	Level      model.Level
	HasCompany bool
	Company    uint32
	Loc        LocCond
	Cont       ContCond
}

// Pattern is a compiled subscription pattern. The engine shares one
// Pattern, a template, among the subscriptions that differ only in
// tag(N) literals: those are lifted out into each subscription's
// constants.
type Pattern struct {
	Steps  []Step
	Within model.Epoch // 0 = unbounded
	// pieces is the source text around the lifted literals, one more
	// piece than there are constants.
	pieces []string
}

// String returns the source text the pattern was parsed from.
func (p *Pattern) String() string { return p.text(nil) }

// text rebuilds the source text of the pattern with constants filled in
// for its lifted literals.
func (p *Pattern) text(consts []model.Tag) string {
	if len(p.pieces) == 1 {
		return p.pieces[0]
	}
	b := make([]byte, 0, 64)
	for i, piece := range p.pieces {
		if i > 0 {
			b = strconv.AppendUint(b, uint64(consts[i-1]), 10)
		}
		b = append(b, piece...)
	}
	return string(b)
}

// tag returns the object step si requires (NoTag: any), reading a
// lifted literal from consts.
func (p *Pattern) tag(si int, consts []model.Tag) model.Tag {
	if k := p.Steps[si].tagConst; k != 0 {
		return consts[k-1]
	}
	return p.Steps[si].Tag
}

// binding is the payload captured when a positive step matches.
type binding struct {
	loc  model.LocationID
	cont model.Tag
}

// matches reports whether e satisfies step si given the bindings of the
// earlier positive steps and the subscription's constants.
func (p *Pattern) matches(si int, e event.Event, binds *[MaxSteps]binding, consts []model.Tag) bool {
	st := &p.Steps[si]
	if !st.Kinds.Has(e.Kind) {
		return false
	}
	if tag := p.tag(si, consts); tag != model.NoTag && e.Object != tag {
		return false
	}
	if st.HasLevel || st.HasCompany {
		id, err := epc.Decode(e.Object)
		if err != nil {
			return false
		}
		if st.HasLevel && id.Level != st.Level {
			return false
		}
		if st.HasCompany && id.Company != st.Company {
			return false
		}
	}
	switch st.Loc.Mode {
	case condRange:
		in := e.Kind.Location() && e.Location >= st.Loc.Lo && e.Location <= st.Loc.Hi
		if in == st.Loc.Neg {
			return false
		}
	case condRef:
		if !e.Kind.Location() {
			return false
		}
		ref := binds[st.Loc.Ref].loc
		if ref == model.LocationNone {
			return false // referenced step bound a non-location event
		}
		if (e.Location == ref) == st.Loc.Neg {
			return false
		}
	}
	switch st.Cont.Mode {
	case condEq:
		if !e.Kind.Containment() || e.Container != st.Cont.Tag {
			return false
		}
	case condRef:
		ref := binds[st.Cont.Ref].cont
		if !e.Kind.Containment() || ref == model.NoTag || e.Container != ref {
			return false
		}
	}
	return true
}

// bind captures step si's payload from e.
func bind(binds *[MaxSteps]binding, si int, e event.Event) {
	b := binding{loc: model.LocationNone, cont: model.NoTag}
	if e.Kind.Location() {
		b.loc = e.Location
	}
	if e.Kind.Containment() {
		b.cont = e.Container
	}
	binds[si] = b
}

// parsed is a pattern straight off the parser, before the engine splits
// it into a template and constants. It is fixed-size, so parsing a
// subscription whose template already exists allocates nothing.
type parsed struct {
	steps  [MaxSteps]Step // every tag(N) literal still in Tag
	n      int
	within model.Epoch
	// lits holds, per step, the source span of the digits of its tag(N)
	// literal when that literal can be lifted out: it is the step's only
	// tag atom and its text is the constant's decimal form, so the source
	// echoes exactly. end is 0 when the step has none.
	lits [MaxSteps]struct{ start, end int }
}

func (c *parsed) parse(src string) error {
	ps := parser{src: src, rest: src}
	err := ps.pattern(c)
	if err == nil {
		err = c.validate()
	}
	if err != nil {
		return fmt.Errorf("cep: parse %q: %w", src, err)
	}
	return nil
}

// keyMark stands in a template key for a lifted literal; no valid
// source contains it.
const keyMark = '#'

// appendKey appends the template key of src: the source text with each
// liftable literal cut out. Two sources share a key exactly when they
// differ only in liftable literals.
func (c *parsed) appendKey(dst []byte, src string) []byte {
	last := 0
	for _, l := range c.lits[:c.n] {
		if l.end != 0 {
			dst = append(append(dst, src[last:l.start]...), keyMark)
			last = l.end
		}
	}
	return append(dst, src[last:]...)
}

// appendConsts appends the values of the liftable literals, in source
// order.
func (c *parsed) appendConsts(dst []model.Tag) []model.Tag {
	for i, l := range c.lits[:c.n] {
		if l.end != 0 {
			dst = append(dst, c.steps[i].Tag)
		}
	}
	return dst
}

// template builds the shared pattern of src's key: the steps with the
// liftable literals replaced by constant slots.
func (c *parsed) template(src string) Pattern {
	p := Pattern{Steps: slices.Clone(c.steps[:c.n]), Within: c.within}
	last, k := 0, int8(0)
	for i, l := range c.lits[:c.n] {
		if l.end != 0 {
			p.pieces = append(p.pieces, src[last:l.start])
			last = l.end
			k++
			p.Steps[i].Tag, p.Steps[i].tagConst = model.NoTag, k
		}
	}
	p.pieces = append(p.pieces, src[last:])
	return p
}

// validate enforces the structural rules shared by engine and reference.
func (c *parsed) validate() error {
	steps := c.steps[:c.n]
	if steps[0].Neg {
		return fmt.Errorf("first step must be positive")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Neg && steps[i-1].Neg {
			return fmt.Errorf("adjacent NOT steps (step %d)", i+1)
		}
	}
	if steps[len(steps)-1].Neg && c.within <= 0 {
		return fmt.Errorf("trailing NOT requires a WITHIN window")
	}
	for i := range steps {
		st := &steps[i]
		for _, r := range [2]struct {
			mode, ref int
			what      string
		}{{st.Loc.Mode, st.Loc.Ref, "location"}, {st.Cont.Mode, st.Cont.Ref, "container"}} {
			if r.mode != condRef {
				continue
			}
			if r.ref >= i {
				return fmt.Errorf("step %d: %s @%d must reference an earlier step", i+1, r.what, r.ref+1)
			}
			if steps[r.ref].Neg {
				return fmt.Errorf("step %d: %s @%d references a NOT step, which binds nothing", i+1, r.what, r.ref+1)
			}
		}
	}
	return nil
}

// parser is a hand-rolled recursive-descent parser over the tiny grammar.
type parser struct {
	src  string
	rest string
	// tagLit is the span of the current step's tag atom's digits.
	tagLit struct{ start, end int }
}

func (ps *parser) ws() {
	ps.rest = strings.TrimLeft(ps.rest, " \t\r\n")
}

// lit consumes the literal s if it is next (after whitespace).
func (ps *parser) lit(s string) bool {
	ps.ws()
	if strings.HasPrefix(ps.rest, s) {
		ps.rest = ps.rest[len(s):]
		return true
	}
	return false
}

// ident consumes a lowercase/uppercase identifier.
func (ps *parser) ident() string {
	ps.ws()
	i := 0
	for i < len(ps.rest) {
		c := ps.rest[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			i++
			continue
		}
		break
	}
	id := ps.rest[:i]
	ps.rest = ps.rest[i:]
	return id
}

// int parses an unsigned decimal; tags are full-range uint64 EPC values.
func (ps *parser) int() (uint64, error) {
	ps.ws()
	i := 0
	for i < len(ps.rest) && ps.rest[i] >= '0' && ps.rest[i] <= '9' {
		i++
	}
	if i == 0 {
		return 0, fmt.Errorf("expected a number at %q", trunc(ps.rest))
	}
	v, err := strconv.ParseUint(ps.rest[:i], 10, 64)
	if err != nil {
		return 0, err
	}
	ps.rest = ps.rest[i:]
	return v, nil
}

func trunc(s string) string {
	if len(s) > 24 {
		return s[:24] + "..."
	}
	return s
}

// pattern parses the whole source into c.
func (ps *parser) pattern(c *parsed) error {
	if !ps.lit("SEQ") {
		return fmt.Errorf("expected SEQ at %q", trunc(ps.rest))
	}
	if !ps.lit("(") {
		return fmt.Errorf("expected ( after SEQ")
	}
	steps := 0
	for {
		var extra Step // parsed only to count the steps past the cap
		st := &extra
		if steps < MaxSteps {
			st = &c.steps[steps]
		}
		if err := ps.step(st); err != nil {
			return err
		}
		if st.Tag != model.NoTag && ps.src[ps.tagLit.start] != '0' && steps < MaxSteps {
			c.lits[steps] = ps.tagLit
		}
		steps++
		if ps.lit(",") {
			continue
		}
		break
	}
	if steps > MaxSteps {
		return fmt.Errorf("%d steps exceed the maximum %d", steps, MaxSteps)
	}
	c.n = steps
	if !ps.lit(")") {
		return fmt.Errorf("expected ) at %q", trunc(ps.rest))
	}
	if ps.lit("WITHIN") {
		n, err := ps.int()
		if err != nil {
			return err
		}
		if n < 1 || n > uint64(model.InfiniteEpoch/2) {
			return fmt.Errorf("WITHIN %d out of range", n)
		}
		c.within = model.Epoch(n)
	}
	ps.ws()
	if ps.rest != "" {
		return fmt.Errorf("trailing input %q", trunc(ps.rest))
	}
	return nil
}

func (ps *parser) step(st *Step) error {
	st.Neg = ps.lit("NOT")
	hasKind := false
	for {
		ps.ws()
		name := ps.ident()
		if name == "" {
			return fmt.Errorf("expected an atom at %q", trunc(ps.rest))
		}
		if err := ps.atom(st, name, &hasKind); err != nil {
			return err
		}
		if ps.lit("&") {
			continue
		}
		return nil
	}
}

// atom parses one atom's argument list and folds it into the step.
func (ps *parser) atom(st *Step, name string, hasKind *bool) error {
	if !ps.lit("(") {
		return fmt.Errorf("expected ( after %q", name)
	}
	if name == "tag" && st.Tag != model.NoTag || name == "level" && st.HasLevel || name == "company" && st.HasCompany {
		return fmt.Errorf("step has more than one %s atom", name)
	}
	kind := func(k event.Kind) error {
		if *hasKind {
			return fmt.Errorf("step has more than one event-kind atom (%q)", name)
		}
		*hasKind = true
		st.Kinds = kindBit(k)
		return nil
	}
	var err error
	switch name {
	case "any":
	case "missing":
		err = kind(event.Missing)
	case "start", "end":
		k := event.StartLocation
		if name == "end" {
			k = event.EndLocation
		}
		if err = kind(k); err == nil {
			err = ps.locArg(&st.Loc)
		}
	case "contain", "uncontain":
		k := event.StartContainment
		if name == "uncontain" {
			k = event.EndContainment
		}
		if err = kind(k); err == nil {
			err = ps.contArg(&st.Cont)
		}
	case "tag":
		var v uint64
		ps.ws()
		ps.tagLit.start = len(ps.src) - len(ps.rest)
		if v, err = ps.int(); err == nil {
			ps.tagLit.end = len(ps.src) - len(ps.rest)
			if v == 0 {
				err = fmt.Errorf("tag(%d) must be positive", v)
			}
			st.Tag = model.Tag(v)
		}
	case "level":
		lvl := ps.ident()
		switch lvl {
		case "item":
			st.Level = model.LevelItem
		case "case":
			st.Level = model.LevelCase
		case "pallet":
			st.Level = model.LevelPallet
		default:
			err = fmt.Errorf("unknown level %q (item|case|pallet)", lvl)
		}
		st.HasLevel = true
	case "company":
		var v uint64
		if v, err = ps.int(); err == nil {
			if v > uint64(epc.MaxCompany) {
				err = fmt.Errorf("company(%d) out of range", v)
			}
			st.HasCompany = true
			st.Company = uint32(v)
		}
	default:
		return fmt.Errorf("unknown atom %q", name)
	}
	if err != nil {
		return err
	}
	if !ps.lit(")") {
		return fmt.Errorf("expected ) closing %q at %q", name, trunc(ps.rest))
	}
	return nil
}

// locArg parses the optional location argument: empty, [!]A[..B], [!]@N.
func (ps *parser) locArg(c *LocCond) error {
	ps.ws()
	if strings.HasPrefix(ps.rest, ")") {
		return nil
	}
	c.Neg = ps.lit("!")
	if ps.lit("@") {
		n, err := ps.int()
		if err != nil {
			return err
		}
		if n < 1 || n > MaxSteps {
			return fmt.Errorf("@%d: step references are 1-based and at most %d", n, MaxSteps)
		}
		c.Mode, c.Ref = condRef, int(n)-1
		return nil
	}
	lo, err := ps.int()
	if err != nil {
		return err
	}
	hi := lo
	if ps.lit("..") {
		if hi, err = ps.int(); err != nil {
			return err
		}
		if hi < lo {
			return fmt.Errorf("empty location range %d..%d", lo, hi)
		}
	}
	if hi > 1<<31-1 {
		return fmt.Errorf("location %d exceeds the 32-bit id space", hi)
	}
	c.Mode, c.Lo, c.Hi = condRange, model.LocationID(lo), model.LocationID(hi)
	return nil
}

// contArg parses the optional container argument: empty, T, @N.
func (ps *parser) contArg(c *ContCond) error {
	ps.ws()
	if strings.HasPrefix(ps.rest, ")") {
		return nil
	}
	if ps.lit("@") {
		n, err := ps.int()
		if err != nil {
			return err
		}
		if n < 1 || n > MaxSteps {
			return fmt.Errorf("@%d: step references are 1-based and at most %d", n, MaxSteps)
		}
		c.Mode, c.Ref = condRef, int(n)-1
		return nil
	}
	v, err := ps.int()
	if err != nil {
		return err
	}
	if v == 0 {
		return fmt.Errorf("contain(%d): container tag must be positive", v)
	}
	c.Mode, c.Tag = condEq, model.Tag(v)
	return nil
}

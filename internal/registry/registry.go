package registry

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/efficientfhe/smartpaf/internal/ckks"
	"github.com/efficientfhe/smartpaf/internal/henn"
)

// Sentinel errors callers branch on (the HTTP layer maps them to statuses).
var (
	// ErrExists is returned by Deploy when the name already has a live
	// version (use Supersede to publish a new version behind it).
	ErrExists = errors.New("registry: model already deployed")
	// ErrUnknown is returned by Retire/Resolve misses.
	ErrUnknown = errors.New("registry: unknown model")
	// ErrRetired is returned by Bind once a model version has been retired.
	ErrRetired = errors.New("registry: model retired")
	// ErrDraining is returned by Bind for a version superseded by a newer
	// one: existing sessions keep serving it, new sessions must bind the
	// successor.
	ErrDraining = errors.New("registry: model version draining")
)

// Ref renders the canonical versioned reference for a model version,
// "name@version" (e.g. "alpha@2"). Versions start at 1.
func Ref(name string, version int) string {
	return name + "@" + strconv.Itoa(version)
}

// SplitRef parses a model reference. A bare name ("alpha") returns version 0,
// meaning "the newest live version"; "alpha@2" pins version 2 exactly.
// Version numbers below 1 and malformed suffixes are errors.
func SplitRef(ref string) (name string, version int, err error) {
	name, ver, ok := strings.Cut(ref, "@")
	if !ok {
		return ref, 0, nil
	}
	v, err := strconv.Atoi(ver)
	if err != nil || v < 1 {
		return "", 0, fmt.Errorf("registry: bad version in %q (want name@N with N >= 1)", ref)
	}
	return name, v, nil
}

// Lifecycle states of a deployed version.
const (
	stateLive = iota
	// stateDraining: superseded — no new binds, existing sessions keep
	// serving until they release; the stack frees on the last reference.
	stateDraining
	// stateRetired: removed from the catalog, bound sessions are being
	// closed by the server; frees on the last reference.
	stateRetired
)

// Deployed is one compiled serving stack: a model version plus everything
// derived from it at deploy time — compiled parameters, a shared encoder, the
// canonical parameter-literal bytes sessions must match, the rotation-step
// set (computing it warms every linear layer's plan cache), and
// per-model counters. All fields are immutable after Deploy except the
// counters and the lifecycle state, so any number of sessions and workers
// can share one Deployed without locking. Nothing tears a stack down by
// hand: once a retired or superseded version's last session releases it,
// the registry lets go, and the garbage collector frees it, caches included,
// when the last unit running on it answers.
type Deployed struct {
	model      *Model
	version    int
	params     *ckks.Parameters
	enc        *ckks.Encoder
	paramBytes []byte
	levels     int
	rotations  []int
	// compileTime is how long compile spent building the stack (parameter
	// compilation plus plan warming); the server's telemetry plane
	// records it per deploy.
	compileTime time.Duration
	// delist removes this version from its registry's catalog once the
	// stack frees; set at publish time, nil for never-published stacks.
	delist func()

	unitsRun atomic.Int64

	mu    sync.Mutex
	refs  int  // bound sessions, guarded by mu
	state int  // guarded by mu
	freed bool // guarded by mu
	// drained is closed when the stack stops serving (drain or retire) and
	// the last session is released.
	drained chan struct{}
}

// Model returns the deployed artifact (treat as read-only).
func (d *Deployed) Model() *Model { return d.model }

// Name returns the model's base name (no version suffix).
func (d *Deployed) Name() string { return d.model.Name }

// Version returns the registry-assigned version number (>= 1).
func (d *Deployed) Version() int { return d.version }

// Ref returns the canonical versioned reference, e.g. "alpha@2".
func (d *Deployed) Ref() string { return Ref(d.model.Name, d.version) }

// Params returns the compiled CKKS parameters.
func (d *Deployed) Params() *ckks.Parameters { return d.params }

// Encoder returns the shared encoder for the model's parameters.
func (d *Deployed) Encoder() *ckks.Encoder { return d.enc }

// ParamBytes returns the canonical literal encoding sessions must byte-match.
func (d *Deployed) ParamBytes() []byte { return d.paramBytes }

// Levels returns the multiplicative levels one inference consumes.
func (d *Deployed) Levels() int { return d.levels }

// Rotations returns the rotation steps a session's key set must cover.
func (d *Deployed) Rotations() []int { return d.rotations }

// CompileTime reports how long the deploy-time compilation of this stack took.
func (d *Deployed) CompileTime() time.Duration { return d.compileTime }

// AddUnitRun bumps the per-model inference counter.
func (d *Deployed) AddUnitRun() { d.unitsRun.Add(1) }

// UnitsRun reports how many inference units have run against this model.
func (d *Deployed) UnitsRun() int64 { return d.unitsRun.Load() }

// Bind takes a session reference. It fails once the version stops accepting
// new sessions: ErrDraining after a supersede (bind the successor instead),
// ErrRetired after a retire — a registering client racing either gets a
// clean error instead of a stack that is being torn down.
func (d *Deployed) Bind() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch d.state {
	case stateDraining:
		return ErrDraining
	case stateRetired:
		return ErrRetired
	}
	d.refs++
	return nil
}

// Release drops one session reference. When a draining or retired
// version's last session goes, the stack is freed: Drained is closed and the
// version leaves the catalog.
func (d *Deployed) Release() {
	d.mu.Lock()
	if d.refs <= 0 {
		d.mu.Unlock()
		panic("registry: Release without a matching Bind")
	}
	d.refs--
	free := d.claimFreeLocked()
	d.mu.Unlock()
	if free {
		d.free()
	}
}

// claimFreeLocked reports (once) that the stack should be freed now.
// Callers hold d.mu.
func (d *Deployed) claimFreeLocked() bool {
	if d.state != stateLive && d.refs == 0 && !d.freed {
		d.freed = true
		return true
	}
	return false
}

// setState moves the lifecycle forward (never backward: a retire of an
// already-draining version sticks), freeing immediately when nothing is
// bound.
func (d *Deployed) setState(state int) {
	d.mu.Lock()
	if state > d.state {
		d.state = state
	}
	free := d.claimFreeLocked()
	d.mu.Unlock()
	if free {
		d.free()
	}
}

func (d *Deployed) free() {
	close(d.drained)
	if d.delist != nil {
		d.delist()
	}
}

// Refs reports how many sessions are bound; primarily for tests and stats.
func (d *Deployed) Refs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.refs
}

// Retired reports whether the version has been retired (not merely
// superseded).
func (d *Deployed) Retired() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == stateRetired
}

// Draining reports whether the version was superseded and is serving only
// its existing sessions until they release.
func (d *Deployed) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == stateDraining
}

// Drained is closed once a draining or retired version's last session is
// released and the version leaves the catalog. For a live version the
// channel never closes.
func (d *Deployed) Drained() <-chan struct{} { return d.drained }

// family is one model name's version history: the monotonic version counter
// plus every version still in the catalog (live or draining). The counter
// survives full retirement so version numbers are never reused — a draining
// alpha@1 can never collide with a fresh deploy of "alpha".
type family struct {
	next     int               // guarded by Registry.mu
	versions map[int]*Deployed // guarded by Registry.mu
}

// Registry is the concurrency-safe versioned model catalog. An optional
// Store (UseStore) persists every deployed bundle so a restart reloads the
// catalog.
type Registry struct {
	// Registry.mu nests outside Deployed.mu: list/resolve paths hold mu
	// while querying a Deployed's drain state (liveLocked), and
	// Deployed.free runs only after d.mu is released, because delisting
	// takes mu (TestDelistRunsOutsideStackLock).
	mu       sync.RWMutex
	families map[string]*family // guarded by mu
	store    *Store             // guarded by mu
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// UseStore attaches a persistent bundle store to a new registry: every bundle
// already in the store is loaded into the catalog at its recorded version,
// and every future Deploy/Supersede/Retire is mirrored to disk. Corrupt or
// misnamed files are skipped, each contributing a warning — a hostile or
// truncated state file must not block startup. Call before serving traffic,
// at most once.
func (r *Registry) UseStore(s *Store) (warnings []error) {
	entries, warnings := s.Load()
	var restored []*Deployed
	for _, e := range entries {
		d, err := compile(e.Model)
		if err != nil {
			warnings = append(warnings, fmt.Errorf("%s: %w", Ref(e.Model.Name, e.Version), err))
			continue
		}
		d.version = e.Version
		restored = append(restored, d)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = s
	for i, d := range restored {
		// Load sorts by name then version, so a name's newest version comes
		// last. A crash between a supersede's Save(vN+1) and Remove(vN)
		// leaves both files behind: finish the interrupted rollout by
		// restoring only the newest.
		if i+1 < len(restored) && restored[i+1].Name() == d.Name() {
			warnings = append(warnings, fmt.Errorf("%s: superseded by a newer stored version; dropped", d.Ref()))
			s.Remove(d.Name(), d.version)
			continue
		}
		r.insertLocked(r.familyLocked(d.Name()), d)
	}
	return warnings
}

// compile validates the model and builds its serving stack (expensive:
// parameter compilation and plan warming), outside any catalog lock.
func compile(m *Model) (*Deployed, error) {
	start := time.Now()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	params, err := ckks.NewParameters(m.Params)
	if err != nil {
		return nil, fmt.Errorf("registry: compiling %q parameters: %w", m.Name, err)
	}
	// One inference consumes exactly LevelsRequired levels (input at level L
	// finishes at L−LevelsRequired ≥ 0), so a chain whose MaxLevel equals
	// LevelsRequired is the true minimum.
	need := m.MLP.LevelsRequired()
	if params.MaxLevel() < need {
		return nil, fmt.Errorf("registry: %q parameters support %d levels, model needs %d", m.Name, params.MaxLevel(), need)
	}
	slots := params.Slots()
	for _, l := range m.MLP.Layers {
		if lin, ok := l.(*henn.Linear); ok && (lin.In > slots || lin.Out > slots) {
			return nil, fmt.Errorf("registry: %q layer %dx%d exceeds %d slots", m.Name, lin.Out, lin.In, slots)
		}
	}
	paramBytes, err := m.Params.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return &Deployed{
		model:      m,
		params:     params,
		enc:        ckks.NewEncoder(params),
		paramBytes: paramBytes,
		levels:     need,
		// The steps of the compiled linear-layer plans inference iterates:
		// clients generate exactly these keys. Deriving them compiles (and
		// caches) the plans, so the first inference after a hot deploy does
		// not pay the O(slots·Out) derivation.
		rotations:   m.MLP.ServingRotations(slots),
		compileTime: time.Since(start),
		drained:     make(chan struct{}),
	}, nil
}

// familyLocked returns the name's family, creating it empty. Callers hold
// r.mu.
func (r *Registry) familyLocked(name string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{next: 1, versions: map[int]*Deployed{}}
		r.families[name] = f
	}
	return f
}

// insertLocked catalogs d in f at d.version and keeps the counter monotonic
// past it. Callers hold r.mu.
func (r *Registry) insertLocked(f *family, d *Deployed) {
	name, version := d.Name(), d.version
	f.versions[version] = d
	f.next = max(f.next, version+1)
	d.delist = func() { r.delistVersion(name, version) }
}

// delistVersion drops a freed version from the catalog (no-op if a Retire
// already removed it).
func (r *Registry) delistVersion(name string, version int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		delete(f.versions, version)
	}
}

// liveLocked returns the family's newest live version, nil if none.
// Callers hold Registry.mu.
func (f *family) liveLocked() *Deployed {
	var best *Deployed
	for _, d := range f.versions {
		if d.Draining() || d.Retired() {
			continue
		}
		if best == nil || d.version > best.version {
			best = d
		}
	}
	return best
}

// Deploy validates and compiles the model into a serving stack and publishes
// it as the next version of its name. Compilation happens outside the
// catalog lock, so concurrent deploys of different models proceed in
// parallel. A name with a live version returns ErrExists (Supersede is the
// versioned upgrade path); a name whose versions are all draining or gone
// deploys normally, continuing the version sequence.
func (r *Registry) Deploy(m *Model) (*Deployed, error) { return r.publish(m, false) }

// Supersede publishes the model as the next version of its name and drains
// every live older version: existing sessions keep serving the old stacks
// until they release (the stack frees on the last reference), while new
// binds land on the new version. Superseding a name with no live version is
// equivalent to Deploy.
func (r *Registry) Supersede(m *Model) (*Deployed, error) { return r.publish(m, true) }

// publish is Deploy's and Supersede's one path. Compilation runs before the
// catalog lock; the version is then chosen, saved, the drained versions'
// files removed and the new version inserted in one critical section, so the
// store changes together with the catalog and a failed Save publishes
// nothing. The drains start after the lock is released, because a stack
// that frees on the spot delists itself under it.
func (r *Registry) publish(m *Model, supersede bool) (*Deployed, error) {
	d, err := compile(m)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	f := r.familyLocked(m.Name)
	var old []*Deployed
	for _, prev := range f.versions {
		if !prev.Draining() && !prev.Retired() {
			old = append(old, prev)
		}
	}
	if len(old) > 0 && !supersede {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q is live as %s (supersede to upgrade)", ErrExists, m.Name, f.liveLocked().Ref())
	}
	d.version = f.next
	if r.store != nil {
		if err := r.store.Save(m, d.version); err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: persisting %s: %w", d.Ref(), err)
		}
		// A draining version never serves a new session (or a restart), so
		// its bundle leaves the store at drain start, not drain end.
		for _, prev := range old {
			r.store.Remove(m.Name, prev.version)
		}
	}
	r.insertLocked(f, d)
	r.mu.Unlock()
	for _, prev := range old {
		prev.setState(stateDraining)
	}
	return d, nil
}

// Resolve returns the deployed stack for a reference: "name@N" pins that
// exact version (returned even while draining, so its catalog entry stays
// inspectable; Bind reports the drain), a bare name resolves to the newest
// live version.
func (r *Registry) Resolve(ref string) (*Deployed, bool) {
	name, version, err := SplitRef(ref)
	if err != nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.families[name]
	if f == nil {
		return nil, false
	}
	if version != 0 {
		d, ok := f.versions[version]
		return d, ok
	}
	d := f.liveLocked()
	return d, d != nil
}

// List returns every cataloged version (live and draining), sorted by name
// then version.
func (r *Registry) List() []*Deployed {
	r.mu.RLock()
	out := make([]*Deployed, 0, len(r.families))
	for _, f := range r.families {
		for _, d := range f.versions {
			out = append(out, d)
		}
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].model.Name != out[j].model.Name {
			return out[i].model.Name < out[j].model.Name
		}
		return out[i].version < out[j].version
	})
	return out
}

// Len reports how many model versions are cataloged.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, f := range r.families {
		n += len(f.versions)
	}
	return n
}

// Retire removes model versions from the catalog and their bundles from the
// store — new Bind calls fail from this point — and returns their stacks so
// the caller can close bound sessions. "name@N" retires that exact version;
// a bare name retires every cataloged version (draining ones included). Each
// stack is freed once every bound session has released its reference
// (watch Drained for that moment).
func (r *Registry) Retire(ref string) ([]*Deployed, error) {
	name, version, err := SplitRef(ref)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnknown, err)
	}
	var out []*Deployed
	r.mu.Lock()
	if f := r.families[name]; f != nil {
		for v, d := range f.versions {
			if version == 0 || v == version {
				delete(f.versions, v)
				if r.store != nil {
					r.store.Remove(name, v)
				}
				out = append(out, d)
			}
		}
	}
	r.mu.Unlock()
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, ref)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].version < out[j].version })
	for _, d := range out {
		d.setState(stateRetired)
	}
	return out, nil
}

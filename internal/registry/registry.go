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
	// serving until they release; the last release delists the version.
	stateDraining
	// stateRetired: already out of the catalog, bound sessions are being
	// closed by the server.
	stateRetired
)

// Deployed is one compiled serving stack: a model version plus everything
// derived from it at deploy time — compiled parameters, a shared encoder, the
// canonical parameter-literal bytes sessions must match, the rotation-step
// set, and per-model counters. Each linear layer encodes its one plan on the
// first inference, not here. All fields are immutable after Deploy except the
// counters and the lifecycle state, so any number of sessions and workers
// can share one Deployed without locking. Nothing tears a stack down by
// hand: a retired version leaves the catalog at once, a superseded one when
// its last session releases it, and the garbage collector frees the stack,
// caches included, once the last unit running on it answers.
type Deployed struct {
	model      *Model
	version    int
	params     *ckks.Parameters
	enc        *ckks.Encoder
	paramBytes []byte
	levels     int
	rotations  []int
	// compileTime is how long compile spent building the stack (parameter
	// compilation plus the rotation-step walk); the server's telemetry plane
	// records it per deploy.
	compileTime time.Duration
	// reg is the registry that cataloged this version, which a draining
	// version leaves on its last release; nil for never-published stacks.
	reg *Registry

	unitsRun atomic.Int64

	mu    sync.Mutex
	refs  int // bound sessions, guarded by mu
	state int // guarded by mu
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

// Release drops one session reference. A draining version's last release
// takes it out of the catalog: it refuses Bind, so once idle it stays idle.
func (d *Deployed) Release() {
	d.mu.Lock()
	if d.refs <= 0 {
		d.mu.Unlock()
		panic("registry: Release without a matching Bind")
	}
	d.refs--
	drained := d.state == stateDraining && d.refs == 0
	d.mu.Unlock()
	if drained {
		d.reg.delist(d)
	}
}

// setState moves the lifecycle forward (never backward: a retire of an
// already-draining version sticks). A version that starts draining with no
// session bound leaves the catalog at once; a retired one is already out.
func (d *Deployed) setState(state int) {
	d.mu.Lock()
	if state > d.state {
		d.state = state
	}
	drained := d.state == stateDraining && d.refs == 0
	d.mu.Unlock()
	if drained {
		d.reg.delist(d)
	}
}

// Refs reports how many sessions are bound; primarily for tests and stats.
func (d *Deployed) Refs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.refs
}

// Draining reports whether the version was superseded and is serving only
// its existing sessions until they release.
func (d *Deployed) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == stateDraining
}

// family is one model name's version history: the monotonic version counter
// plus every version still in the catalog (live or draining). The counter
// survives full retirement so version numbers are never reused — a draining
// alpha@1 can never collide with a fresh deploy of "alpha".
type family struct {
	next     int               // guarded by Registry.mu
	versions map[int]*Deployed // guarded by Registry.mu
	// live is the one version new sessions bind and a bare name resolves
	// to, nil while every version is draining or gone; guarded by
	// Registry.mu.
	live *Deployed
}

// Registry is the concurrency-safe versioned model catalog. An optional
// Store (UseStore) persists every deployed bundle so a restart reloads the
// catalog.
type Registry struct {
	// mu and Deployed.mu are never held together: the catalog answers from
	// its own fields, and a stack delists itself only after releasing its
	// lock (TestCatalogReadsIgnoreStackLock).
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
		name := d.model.Name
		if i+1 < len(restored) && restored[i+1].model.Name == name {
			warnings = append(warnings, fmt.Errorf("%s: superseded by a newer stored version; dropped", Ref(name, d.version)))
			s.Remove(name, d.version)
			continue
		}
		r.insertLocked(r.familyLocked(name), d)
	}
	return warnings
}

// compile validates the model and builds its serving stack (expensive:
// parameter compilation), outside any catalog lock.
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
		// The steps of the diagonal walk every linear-layer plan is
		// compiled from: clients generate exactly these keys.
		rotations:   m.MLP.ServingRotations(slots),
		compileTime: time.Since(start),
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

// insertLocked catalogs d in f at d.version as the name's live version and
// keeps the counter monotonic past it. Callers hold r.mu.
func (r *Registry) insertLocked(f *family, d *Deployed) {
	f.versions[d.version] = d
	f.next = max(f.next, d.version+1)
	f.live = d
	d.reg = r
}

// delist drops a drained version from the catalog (a no-op if a Retire
// already removed it). Families are never deleted, so d's is there.
func (r *Registry) delist(d *Deployed) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.families[d.model.Name].versions, d.version)
}

// Deploy validates and compiles the model into a serving stack and publishes
// it as the next version of its name. Compilation happens outside the
// catalog lock, so concurrent deploys of different models proceed in
// parallel. A name with a live version returns ErrExists (Supersede is the
// versioned upgrade path); a name whose versions are all draining or gone
// deploys normally, continuing the version sequence.
func (r *Registry) Deploy(m *Model) (*Deployed, error) { return r.publish(m, false) }

// Supersede publishes the model as the next version of its name and drains
// the live older version: existing sessions keep serving the old stack until
// they release (the last release delists it), while new binds land on the
// new version. Superseding a name with no live version is equivalent to
// Deploy.
func (r *Registry) Supersede(m *Model) (*Deployed, error) { return r.publish(m, true) }

// publish is Deploy's and Supersede's one path. Compilation runs before the
// catalog lock; the version is then chosen, saved, the drained version's
// file removed and the new version inserted in one critical section, so the
// store changes together with the catalog and a failed Save publishes
// nothing. The drain starts after the lock is released, because a stack
// that is idle delists itself under it.
func (r *Registry) publish(m *Model, supersede bool) (*Deployed, error) {
	d, err := compile(m)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	f := r.familyLocked(m.Name)
	prev := f.live
	if prev != nil && !supersede {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %q is live as %s (supersede to upgrade)", ErrExists, m.Name, Ref(m.Name, prev.version))
	}
	d.version = f.next
	if r.store != nil {
		if err := r.store.Save(m, d.version); err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry: persisting %s: %w", Ref(m.Name, d.version), err)
		}
		// A draining version never serves a new session (or a restart), so
		// its bundle leaves the store at drain start, not drain end.
		if prev != nil {
			r.store.Remove(m.Name, prev.version)
		}
	}
	r.insertLocked(f, d)
	r.mu.Unlock()
	if prev != nil {
		prev.setState(stateDraining)
	}
	return d, nil
}

// Resolve returns the deployed stack for a reference: "name@N" pins that
// exact version (returned even while draining, so its catalog entry stays
// inspectable; Bind reports the drain), a bare name resolves to the live
// version.
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
	return f.live, f.live != nil
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
// a bare name retires every cataloged version (draining ones included).
// Retiring the live version leaves the name with none until the next
// Deploy.
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
				if d == f.live {
					f.live = nil
				}
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

package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Store persists deployed bundles under a state directory, one
// "<name>@<version>.hemodel" file per cataloged version (the same bytes
// POST /v1/models accepts) — the only place bundles live on disk. Writes go
// through a synced temp file, an atomic rename and a directory sync, so
// neither a crash nor a power loss leaves a torn or empty bundle that would
// poison the next startup. A Registry wired through UseStore keeps the
// directory in lockstep with the catalog: Deploy and Supersede save, Retire
// and drain-start remove, each under the catalog lock.
type Store struct {
	dir string
}

// storeExt is the bundle file suffix.
const storeExt = ".hemodel"

// OpenStore opens (creating if needed) the state directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// path is the bundle file for one model version.
func (s *Store) path(name string, version int) string {
	return filepath.Join(s.dir, Ref(name, version)+storeExt)
}

// Save persists the bundle for a model version, atomically replacing any
// previous file: marshal, write and sync "<ref>.hemodel.tmp", rename it over
// the final name, sync the directory. The rename is the commit point — a
// reader (or a restart) sees either the old complete file or the new one —
// and the syncs make the new file's bytes and its name durable before the
// caller removes a superseded version's file. On failure nothing is left
// behind.
func (s *Store) Save(m *Model, version int) error {
	data, err := m.MarshalBinary()
	if err != nil {
		return err
	}
	final := s.path(m.Name, version)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		_, err = f.Write(data)
		err = syncClose(f, err)
	}
	if err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(s.dir)
	if err == nil {
		err = syncClose(dir, nil)
	}
	if err != nil {
		os.Remove(final)
	}
	return err
}

// syncClose flushes f to stable storage (unless err already failed the
// write) and closes it, returning the first error.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Remove deletes a version's bundle file. A missing file is not an error —
// a superseded version's file is removed at drain start, and a later bare
// Retire of the family sweeps the same versions again.
func (s *Store) Remove(name string, version int) {
	_ = os.Remove(s.path(name, version))
}

// StoredModel is one bundle recovered from the state directory.
type StoredModel struct {
	Model   *Model
	Version int
}

// Load reads every bundle in the state directory, sorted by model name and
// then by numeric version, so alpha@10 follows alpha@9: UseStore relies on a
// name's newest version coming last. Files that are misnamed, truncated,
// corrupt, or whose embedded model name disagrees with the file name are
// skipped, each contributing a warning — hostile state must never block
// startup.
func (s *Store) Load() ([]StoredModel, []error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, []error{fmt.Errorf("registry: state dir: %w", err)}
	}
	var (
		out      []StoredModel
		warnings []error
	)
	warnf := func(format string, args ...any) {
		warnings = append(warnings, fmt.Errorf(format, args...))
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), storeExt) {
			continue
		}
		path := filepath.Join(s.dir, e.Name())
		name, version, err := SplitRef(strings.TrimSuffix(e.Name(), storeExt))
		// The file name must round-trip through Ref exactly: a non-canonical
		// spelling like "alpha@01" would parse to a version whose canonical
		// file Remove would later delete at a different path, leaving an
		// undeletable bundle that resurrects on every restart.
		if err != nil || version == 0 || e.Name() != Ref(name, version)+storeExt {
			warnf("%s: file name is not <name>@<version>%s; skipped", path, storeExt)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			warnf("%s: %v; skipped", path, err)
			continue
		}
		m := new(Model)
		if err := m.UnmarshalBinary(data); err != nil {
			warnf("%s: %v; skipped", path, err)
			continue
		}
		if m.Name != name {
			warnf("%s: bundle is for model %q, file name says %q; skipped", path, m.Name, name)
			continue
		}
		out = append(out, StoredModel{Model: m, Version: version})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Model.Name != out[j].Model.Name {
			return out[i].Model.Name < out[j].Model.Name
		}
		return out[i].Version < out[j].Version
	})
	return out, warnings
}

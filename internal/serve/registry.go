package serve

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// ModelSpec declares one named model of a Registry: where its
// checkpoint lives, how it serves (Options carries the per-model
// exclusion source, clamp and lineage configuration), and any
// resource whose lifetime is tied to the model (e.g. a mapped .bcsr
// exclusion file).
type ModelSpec struct {
	// Name is the registry key and the /v1/<name>/... route segment.
	Name string
	// Path is the checkpoint file to serve and watch.
	Path string
	// Opts configures every (re)load of this model.
	Opts Options
	// Close, when non-nil, releases resources owned by the model's
	// Options (a mapped exclusion source) at Registry.Close.
	Close func() error
}

// Registry hosts N named models, each an independently hot-reloading
// Server: one model's new checkpoint (or failed reload) never touches
// another model's snapshot, and each behind its own admission gate
// (Batcher): the line of rankings waiting for a scoring slot is per route,
// so one model's burst never sheds another model's requests, and the rate
// limit is enforced per (client, model). The model set is fixed at
// construction; per-model state is managed by the Servers and gates
// themselves, so Registry reads need no locks.
type Registry struct {
	names    []string // sorted
	models   map[string]*Server
	batchers map[string]*Batcher
	closers  []func() error
}

// NewRegistry opens every spec into a serving Server, failing fast (and
// releasing the already-opened models) if any name is duplicated or any
// initial load fails: a registry that comes up must be fully ready.
// Every model gets a gate built from opts.
func NewRegistry(specs []ModelSpec, opts BatchOptions) (*Registry, error) {
	r := &Registry{models: make(map[string]*Server, len(specs)), batchers: make(map[string]*Batcher, len(specs))}
	for _, sp := range specs {
		if sp.Close != nil {
			r.closers = append(r.closers, sp.Close)
		}
	}
	for _, sp := range specs {
		if sp.Name == "" {
			r.Close()
			return nil, fmt.Errorf("serve: registry model with empty name (checkpoint %s)", sp.Path)
		}
		if _, dup := r.models[sp.Name]; dup {
			r.Close()
			return nil, fmt.Errorf("serve: registry declares model %q twice", sp.Name)
		}
		srv, err := Open(sp.Path, sp.Opts)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("serve: loading model %q: %w", sp.Name, err)
		}
		r.models[sp.Name] = srv
		r.batchers[sp.Name] = NewBatcher(opts)
		r.names = append(r.names, sp.Name)
	}
	sort.Strings(r.names)
	return r, nil
}

// Get returns the named model's server.
func (r *Registry) Get(name string) (*Server, bool) {
	s, ok := r.models[name]
	return s, ok
}

// Batcher returns the named model's admission gate (nil for an unknown
// name).
func (r *Registry) Batcher(name string) *Batcher { return r.batchers[name] }

// Names returns the registered model names in sorted order. Callers
// must not mutate the returned slice.
func (r *Registry) Names() []string { return r.names }

// Len returns the number of registered models.
func (r *Registry) Len() int { return len(r.models) }

// ReloadAll reloads every model independently and returns the failures
// by model name (empty = all swapped). A failing model keeps serving
// its previous snapshot and never blocks the others' reloads.
func (r *Registry) ReloadAll() map[string]error {
	errs := make(map[string]error)
	for _, name := range r.names {
		if err := r.models[name].Reload(); err != nil {
			errs[name] = err
		}
	}
	return errs
}

// Watch hot-reloads every model's checkpoint file on change, until ctx
// is done — one Server.Watch per model, so a slow or failing reload of
// one model never delays another's. On Linux a rename onto a file or a
// close after writing it wakes its watcher at once; interval bounds how
// long any other change goes unnoticed.
// Reload errors are reported to onErr (nil = dropped) with the model's
// name and do not stop the watch.
func (r *Registry) Watch(ctx context.Context, interval time.Duration, onErr func(name string, err error)) {
	for _, name := range r.names {
		name := name
		var cb func(error)
		if onErr != nil {
			cb = func(err error) { onErr(name, err) }
		}
		go r.models[name].Watch(ctx, interval, cb)
	}
}

// ModelHealth is one model's readiness snapshot for /healthz.
type ModelHealth struct {
	Name    string
	Users   int
	Items   int
	K       int
	Samples int
	Reloads int64
	// LastError is the most recent reload failure ("" = healthy); a
	// non-empty value means the model still serves its previous good
	// snapshot.
	LastError string
}

// Health reports every model's readiness in name order.
func (r *Registry) Health() []ModelHealth {
	out := make([]ModelHealth, 0, len(r.names))
	for _, name := range r.names {
		srv := r.models[name]
		m := srv.Model()
		h := ModelHealth{
			Name:    name,
			Users:   m.NumUsers(),
			Items:   m.NumItems(),
			K:       m.K(),
			Samples: m.NSamples(),
			Reloads: srv.Reloads.Load(),
		}
		if err := srv.LastError(); err != nil {
			h.LastError = err.Error()
		}
		out = append(out, h)
	}
	return out
}

// Close releases the resources owned by the registry's model specs.
func (r *Registry) Close() error {
	var first error
	for _, c := range r.closers {
		if err := c(); err != nil && first == nil {
			first = err
		}
	}
	r.closers = nil
	return first
}

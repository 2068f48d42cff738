package config

import (
	"flag"
	"fmt"
	"sort"
	"time"
)

// ServeModel configures one named model in the bpmf-serve registry.
type ServeModel struct {
	// Ckpt is the checkpoint file the model serves (required).
	Ckpt string `json:"ckpt"`
	// Data is the model's training rating matrix (.mtx or .bcsr,
	// sniffed): enables already-rated exclusion in /recommend.
	Data string `json:"data,omitempty"`
	// TestFrac reconstructs the training run's held-out split (seeded by
	// the checkpoint) so /predict serves exact posterior intervals.
	// Needs Data.
	TestFrac float64 `json:"test,omitempty"`
	// Alpha is the observation precision the chain was trained with.
	Alpha float64 `json:"alpha,omitempty"`
	// Clamp clips served ratings to a range.
	Clamp Clamp `json:"clamp"`
	// Lineage, when non-nil, pins the checkpoint's provenance: every
	// load and hot reload must match it.
	Lineage *Lineage `json:"lineage,omitempty"`
}

// Validate checks one model entry. name contextualizes errors.
func (m ServeModel) Validate(name string) error {
	if m.Ckpt == "" {
		return fmt.Errorf("config: model %q needs a checkpoint path", name)
	}
	if !(m.TestFrac >= 0 && m.TestFrac < 1) { // NaN fails both
		return fmt.Errorf("config: model %q test fraction must be in [0, 1), got %g", name, m.TestFrac)
	}
	if m.TestFrac > 0 && m.Data == "" {
		return fmt.Errorf("config: model %q test fraction needs a data path to reconstruct the split", name)
	}
	if m.Alpha <= 0 {
		return fmt.Errorf("config: model %q alpha must be positive, got %g", name, m.Alpha)
	}
	if err := m.Clamp.Validate(); err != nil {
		return fmt.Errorf("%w (model %q)", err, name)
	}
	if m.Lineage != nil && m.Lineage.K < 0 {
		return fmt.Errorf("config: model %q lineage k must be >= 0, got %d", name, m.Lineage.K)
	}
	return nil
}

// Serving configures the request path shared by every model route of
// the registry: recommend / fold-in rankings run in one of GOMAXPROCS
// scoring slots, the queue bound sheds overload (503 + Retry-After) among
// the rankings waiting for a slot, and the per-client rate limit sheds
// with 429 + Retry-After. Slots and the waiting line are per model route;
// the rate limit is per (client, model).
type Serving struct {
	// QueueBound is the SLO bound on rankings waiting for a scoring slot
	// per model; beyond it new ones are shed with 503 (0 = unbounded).
	// Predicts never wait and are never shed by it.
	QueueBound int `json:"queue_bound,omitempty"`
	// Rate is the per-client admission rate in requests/second
	// (0 = no rate limit).
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket depth per client (0 derives
	// max(1, ceil(rate))).
	Burst int `json:"burst,omitempty"`
	// RetryAfter is the back-off hint attached to queue-overload sheds.
	RetryAfter Duration `json:"retry_after,omitempty"`
}

// DefaultServing returns the serving-path defaults: shed beyond 1024
// waiting rankings, no per-client rate limit.
func DefaultServing() Serving {
	return Serving{
		QueueBound: 1024,
		RetryAfter: Duration(time.Second),
	}
}

// RegisterFlags declares the serving-path flag surface over the
// struct's current values.
func (c *Serving) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.QueueBound, "queue-bound", c.QueueBound, "shed rankings with 503 once this many are waiting for a scoring slot per model (0 = unbounded); predicts never wait, so are never shed by it")
	fs.Float64Var(&c.Rate, "rate", c.Rate, "per-client request rate limit in req/s (0 = unlimited)")
	fs.IntVar(&c.Burst, "burst", c.Burst, "per-client token-bucket burst (0 = derive from -rate)")
	fs.Var(&c.RetryAfter, "retry-after", "Retry-After hint attached to overload sheds")
}

// Validate checks the serving-path configuration.
func (c Serving) Validate() error {
	if c.QueueBound < 0 {
		return fmt.Errorf("config: queue bound must be >= 0 (0 = unbounded), got %d", c.QueueBound)
	}
	if c.Rate < 0 {
		return fmt.Errorf("config: rate must be >= 0 (0 = unlimited), got %g", c.Rate)
	}
	if c.Burst < 0 {
		return fmt.Errorf("config: burst must be >= 0 (0 = derived), got %d", c.Burst)
	}
	if c.RetryAfter < 0 {
		return fmt.Errorf("config: retry-after must be >= 0, got %s", c.RetryAfter)
	}
	return nil
}

// Serve configures cmd/bpmf-serve: an HTTP registry of N named models.
// The single-model flag surface (-ckpt, -data, ...) populates Model;
// a config file can instead declare Models, a map of name → model.
// Exactly one of the two forms must be used: next to a Models map, Model
// must keep DefaultServeModel's values. The shared settings (Addr,
// Threads, Watch, Serving) apply to every model either way.
type Serve struct {
	// Addr is the HTTP listen address.
	Addr string `json:"addr,omitempty"`
	// Threads is ignored: it is still accepted (>= 0) for command lines
	// that pass it. Requests are scored in up to GOMAXPROCS concurrent
	// scoring slots.
	Threads int `json:"threads,omitempty"`
	// Watch hot-reloads each model's checkpoint file on change (0 =
	// SIGHUP only). On Linux a rename onto the file or a close after
	// writing it wakes the watcher at once; the file is also checked
	// at this interval, which bounds how long any other change goes
	// unnoticed. Models reload independently: one model's new
	// checkpoint never touches the others' snapshots.
	Watch Duration `json:"watch,omitempty"`
	// Serving configures the shared request path: queue bound and
	// per-client rate limits.
	Serving Serving `json:"serving"`

	// Model is the single-model configuration the classic flag surface
	// fills in; it serves under the name "default".
	Model ServeModel `json:"model"`
	// Models declares N named models (file-only; names become the
	// /v1/<name>/... route segment).
	Models map[string]ServeModel `json:"models,omitempty"`
}

// DefaultServe returns cmd/bpmf-serve's defaults.
func DefaultServe() Serve {
	return Serve{
		Addr:    ":8080",
		Serving: DefaultServing(),
		Model:   DefaultServeModel(),
	}
}

// DefaultServeModel returns the per-model defaults applied to every
// entry of Models that leaves a field unset (JSON merge cannot overlay
// per-entry defaults, so EffectiveModels applies them explicitly).
func DefaultServeModel() ServeModel { return ServeModel{Alpha: 2.0} }

// RegisterFlags declares cmd/bpmf-serve's flag surface over the
// struct's current values. The per-model flags configure Model (the
// "default" entry); multi-model registries come from the config file.
func (c *Serve) RegisterFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.Addr, "addr", c.Addr, "HTTP listen address")
	fs.IntVar(&c.Threads, "threads", c.Threads, "ignored (must be >= 0); requests are scored in up to GOMAXPROCS concurrent scoring slots")
	fs.Var(&c.Watch, "watch", "hot-reload each model's checkpoint on change (0 = SIGHUP only): on Linux at once when the file is renamed onto or closed after writing, and within this interval for any other change")
	c.Serving.RegisterFlags(fs)
	fs.StringVar(&c.Model.Ckpt, "ckpt", c.Model.Ckpt, "checkpoint file to serve (single-model mode)")
	fs.StringVar(&c.Model.Data, "data", c.Model.Data, "rating matrix (MatrixMarket .mtx or binary .bcsr): enables already-rated exclusion in /recommend")
	fs.Float64Var(&c.Model.TestFrac, "test", c.Model.TestFrac, "held-out fraction of the training run; with -data, reconstructs the test split (seeded by the checkpoint) so /predict serves exact posterior intervals")
	fs.Float64Var(&c.Model.Alpha, "alpha", c.Model.Alpha, "observation precision the chain was trained with")
	fs.Float64Var(&c.Model.Clamp.Min, "clamp-min", c.Model.Clamp.Min, "minimum served rating; served ratings are clipped to [clamp-min, clamp-max] when clamp-max > clamp-min")
	fs.Float64Var(&c.Model.Clamp.Max, "clamp-max", c.Model.Clamp.Max, "maximum served rating (clipping is off while clamp-max == clamp-min; clamp-min > clamp-max is refused)")
}

// Validate checks the merged configuration.
func (c Serve) Validate() error {
	if c.Addr == "" {
		return fmt.Errorf("config: serve addr must not be empty")
	}
	if c.Threads < 0 {
		return fmt.Errorf("config: threads must be >= 0 (0 = GOMAXPROCS), got %d", c.Threads)
	}
	if c.Watch < 0 {
		return fmt.Errorf("config: watch interval must be >= 0, got %s", c.Watch)
	}
	if err := c.Serving.Validate(); err != nil {
		return err
	}
	if len(c.Models) == 0 {
		if c.Model.Ckpt == "" {
			return fmt.Errorf("config: need -ckpt (single-model mode) or a models map in the config file")
		}
		return c.Model.Validate("default")
	}
	if set := singleModelSetting(c.Model); set != "" {
		return fmt.Errorf("config: %s configures the single model, and a models map is set: the two forms are mutually exclusive — set it on each model of the map instead", set)
	}
	models, err := c.EffectiveModels()
	if err != nil {
		return err
	}
	for _, name := range sortedNames(models) {
		if err := validModelName(name); err != nil {
			return err
		}
		if err := models[name].Validate(name); err != nil {
			return err
		}
	}
	return nil
}

// singleModelSetting names the first field of m that differs from
// DefaultServeModel() by its flag and its key in the config file's
// "model" object, or returns "" when m holds the defaults.
func singleModelSetting(m ServeModel) string {
	d := DefaultServeModel()
	switch {
	case m.Ckpt != d.Ckpt:
		return "-ckpt (file: model.ckpt)"
	case m.Data != d.Data:
		return "-data (file: model.data)"
	case m.TestFrac != d.TestFrac:
		return "-test (file: model.test)"
	case m.Alpha != d.Alpha:
		return "-alpha (file: model.alpha)"
	case m.Clamp.Min != d.Clamp.Min:
		return "-clamp-min (file: model.clamp.min)"
	case m.Clamp.Max != d.Clamp.Max:
		return "-clamp-max (file: model.clamp.max)"
	case m.Lineage != nil:
		return "model.lineage (file only)"
	}
	return ""
}

// EffectiveModels resolves the registry contents: the named Models map
// with per-model defaults applied, or a one-entry map named "default"
// synthesized from the single-model flag surface.
func (c Serve) EffectiveModels() (map[string]ServeModel, error) {
	if len(c.Models) == 0 {
		if c.Model.Ckpt == "" {
			return nil, fmt.Errorf("config: no models configured")
		}
		return map[string]ServeModel{"default": c.Model}, nil
	}
	out := make(map[string]ServeModel, len(c.Models))
	for name, m := range c.Models {
		if m.Alpha == 0 {
			m.Alpha = DefaultServeModel().Alpha
		}
		out[name] = m
	}
	return out, nil
}

// validModelName restricts registry names to URL-path-safe tokens so
// /v1/<name>/... routes stay unambiguous.
func validModelName(name string) error {
	if name == "" {
		return fmt.Errorf("config: model name must not be empty")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("config: model name %q may only contain letters, digits, '-', '_' and '.'", name)
		}
	}
	return nil
}

// sortedNames returns map keys in deterministic order.
func sortedNames(m map[string]ServeModel) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

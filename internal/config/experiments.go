package config

import (
	"flag"
	"fmt"
)

// Experiments configures cmd/experiments: which figures/experiments of
// the paper's evaluation to regenerate and at what workload scale.
type Experiments struct {
	// Fig regenerates one figure (2..5; 0 = none).
	Fig int `json:"fig,omitempty"`
	// RMSE runs the §V-B accuracy-equivalence experiment.
	RMSE bool `json:"rmse,omitempty"`
	// Speedup runs the §VI end-to-end speedup estimate.
	Speedup bool `json:"speedup,omitempty"`
	// Ablations runs the ablation tables of the paper's Sections III–IV
	// design decisions (cmd/experiments/ablations.go).
	Ablations bool `json:"ablations,omitempty"`
	// All runs every experiment.
	All bool `json:"all,omitempty"`
	// Scale is the dataset scale factor for the simulator workloads.
	Scale float64 `json:"scale,omitempty"`
	// Calibrate measures kernel costs on this machine instead of using
	// the fixed Westmere-like model.
	Calibrate bool `json:"calibrate,omitempty"`
}

// DefaultExperiments returns cmd/experiments' defaults.
func DefaultExperiments() Experiments {
	return Experiments{Scale: 0.05}
}

// RegisterFlags declares cmd/experiments' flag surface over the
// struct's current values.
func (c *Experiments) RegisterFlags(fs *flag.FlagSet) {
	fs.IntVar(&c.Fig, "fig", c.Fig, "figure to regenerate (2..5)")
	fs.BoolVar(&c.RMSE, "rmse", c.RMSE, "run the §V-B accuracy-equivalence experiment")
	fs.BoolVar(&c.Speedup, "speedup", c.Speedup, "run the §VI end-to-end speedup estimate")
	fs.BoolVar(&c.Ablations, "ablations", c.Ablations, "run the ablation tables (paper Sections III-IV design decisions)")
	fs.BoolVar(&c.All, "all", c.All, "run every experiment")
	fs.Float64Var(&c.Scale, "scale", c.Scale, "dataset scale factor for simulator workloads")
	fs.BoolVar(&c.Calibrate, "calibrate", c.Calibrate, "calibrate the cost model on this machine")
}

// Validate checks the merged configuration.
func (c Experiments) Validate() error {
	if c.Fig != 0 && (c.Fig < 2 || c.Fig > 5) {
		return fmt.Errorf("config: fig must be 2..5, got %d", c.Fig)
	}
	if c.Scale <= 0 {
		return fmt.Errorf("config: data scale must be positive, got %g", c.Scale)
	}
	return nil
}

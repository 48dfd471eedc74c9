package experiments

import "retina"

// BurstSize overrides the datapath burst size for every experiment in
// this package (0 = framework default of 32, 1 = one-packet bursts
// through the same code). retina-bench's -burst flag sets it before
// running experiments so figure/table reproductions can be compared
// across batch sizes.
var BurstSize int

// baseConfig is what experiments use in place of retina.DefaultConfig:
// the paper defaults with the package-level burst override applied.
func baseConfig() retina.Config {
	cfg := retina.DefaultConfig()
	cfg.BurstSize = BurstSize
	return cfg
}

// newRuntime builds an experiment's runtime. Experiments run fixed,
// known-good configurations, so an error is a bug.
func newRuntime(cfg retina.Config, sub *retina.Subscription) *retina.Runtime {
	rt, err := retina.New(cfg, sub)
	if err != nil {
		panic(err)
	}
	return rt
}

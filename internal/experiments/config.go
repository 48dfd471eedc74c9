package experiments

import "retina"

// BurstSize overrides the datapath burst size for every experiment in
// this package (0 = framework default of 32, 1 = one-packet bursts
// through the same code). retina-bench's -burst flag sets it before
// running experiments so figure/table reproductions can be compared
// across batch sizes.
var BurstSize int

// repeats is how many runs the best-of measurements take, to shed
// cold-cache and GC noise.
const repeats = 3

// baseConfig is what experiments use in place of retina.DefaultConfig:
// the paper defaults with the package-level burst override applied.
func baseConfig() retina.Config {
	cfg := retina.DefaultConfig()
	cfg.BurstSize = BurstSize
	return cfg
}

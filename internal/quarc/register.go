package quarc

import (
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/topology"
)

// The Quarc registers itself and its two ablation presets (paper §2.2
// modifications ii and iii switched off) with the model registry; the
// presets are ordinary registry entries, so the harness and service treat
// them exactly like any other model.
func init() {
	register := func(name, desc string, preset Config) {
		model.Register(model.Model{
			Name:        name,
			Description: desc,
			CheckN:      topology.ValidateRingSize,
			ExampleN:    16,
			Build: func(bc model.BuildConfig) (*network.Fabric, []model.Node, error) {
				cfg := preset
				cfg.N, cfg.Depth = bc.N, bc.Depth
				return model.Nodes(Build(cfg))
			},
		})
	}
	register("quarc",
		"Quarc NoC: all-port switch, doubled cross links, true hardware broadcast (the paper's architecture)",
		Config{})
	register("quarc-chainbcast",
		"Quarc ablation: true broadcast off, Spidergon-style broadcast-by-unicast chains (modification iii off)",
		Config{ChainBroadcast: true})
	register("quarc-1queue",
		"Quarc ablation: single source queue feeding all four ports (modification ii off)",
		Config{SingleQueue: true})
}

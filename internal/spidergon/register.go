package spidergon

import (
	"quarc/internal/model"
	"quarc/internal/network"
	"quarc/internal/topology"
)

func init() {
	model.Register(model.Model{
		Name:        "spidergon",
		Description: "Spidergon baseline: one-port router, single shared cross link, broadcast by unicast chains",
		CheckN:      topology.ValidateRingSize,
		ExampleN:    16,
		Build: func(bc model.BuildConfig) (*network.Fabric, []model.Node, error) {
			return model.Nodes(Build(Config{N: bc.N, Depth: bc.Depth}))
		},
	})
}

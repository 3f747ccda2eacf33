package models_test

import (
	"testing"

	"quarc/internal/model"
	"quarc/internal/router"
)

// TestEveryModelRejectsDepthZero: a buffer depth below one, or deeper than a
// switch's credit counters can count, is a build error for every registered
// model, ablation presets included, never a panic. The depth check lives in
// network.Build, which every model builds through.
func TestEveryModelRejectsDepthZero(t *testing.T) {
	for _, m := range model.All() {
		t.Run(m.Name, func(t *testing.T) {
			for _, depth := range []int{0, router.MaxDepth + 1} {
				func() {
					defer func() {
						if p := recover(); p != nil {
							t.Fatalf("depth %d panicked: %v", depth, p)
						}
					}()
					if _, _, err := model.Build(m.Name, model.BuildConfig{N: m.ExampleN, Depth: depth}); err == nil {
						t.Fatalf("depth %d built a network", depth)
					}
				}()
			}
		})
	}
}

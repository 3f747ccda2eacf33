package models_test

import (
	"testing"

	"quarc/internal/model"
)

// TestEveryModelRejectsDepthZero: a buffer depth below one is a build error
// for every registered model, ablation presets included, never a panic. The
// depth check lives in network.Build, which every model builds through.
func TestEveryModelRejectsDepthZero(t *testing.T) {
	for _, m := range model.All() {
		t.Run(m.Name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("depth 0 panicked: %v", p)
				}
			}()
			if _, _, err := model.Build(m.Name, model.BuildConfig{N: m.ExampleN, Depth: 0}); err == nil {
				t.Fatal("depth 0 built a network")
			}
		})
	}
}

// Package model is the string-keyed registry of network models the
// simulator can build. Every topology package registers its models (and
// option presets such as the Quarc ablations) from an init function; the
// experiment harness, the service layer and the CLIs resolve models by name
// instead of switching over a hard-coded enum, so adding a network
// architecture is a registration, not a cross-cutting edit.
//
// A model name is also its wire name: the string accepted by the quarcd
// JSON API's "topo" field and the CLIs' -topo flag, and echoed back in
// result payloads.
package model

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"quarc/internal/network"
	"quarc/internal/traffic"
)

// Node is the per-node surface the experiment harness drives: the send side
// of the network adapter plus the source-backlog probe used for saturation
// detection. Every registered model's Build returns one Node per network
// node.
type Node interface {
	traffic.Sender
	// Backlog returns the flits waiting in this node's source queues.
	Backlog() int
}

// Nodes converts what a model package's own Build returns — the fabric and
// its concrete adapter slice, or an error — into what a registered Build
// returns, so a registration reads return model.Nodes(Build(cfg)).
func Nodes[T Node](fab *network.Fabric, adapters []T, err error) (*network.Fabric, []Node, error) {
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]Node, len(adapters))
	for i, a := range adapters {
		nodes[i] = a
	}
	return fab, nodes, nil
}

// BuildConfig carries the topology-independent build parameters. Everything
// else (routing discipline, port counts, ablation switches) is baked into
// the registered builder.
type BuildConfig struct {
	N     int // network size in nodes
	Depth int // flits per virtual-channel lane buffer
}

// Model is one registered network architecture (or option preset of one).
type Model struct {
	// Name is the registry key and wire name, lower-case.
	Name string
	// Description is a one-line summary for listings (-list-models,
	// GET /v1/models).
	Description string
	// CheckN validates a node count without building; nil defers entirely
	// to Build. Registered models should supply it so the service layer can
	// reject invalid sizes at submission time.
	CheckN func(n int) error
	// ExampleN is a small node count valid for this model, used by generic
	// test suites (invariant properties run over every registered model).
	ExampleN int
	// Build assembles the network fabric and its per-node adapters.
	Build func(cfg BuildConfig) (*network.Fabric, []Node, error)
}

var (
	mu       sync.RWMutex
	registry = map[string]Model{}
)

// Register adds a model to the registry. It panics on an empty or duplicate
// name, a missing builder, or a missing ExampleN — registration happens at
// init time, so a bad registration is a programming error, not a runtime
// condition.
func Register(m Model) {
	if m.Name == "" || m.Name != strings.ToLower(m.Name) {
		panic(fmt.Sprintf("model: invalid name %q (must be non-empty lower-case)", m.Name))
	}
	if m.Build == nil {
		panic(fmt.Sprintf("model: %q registered without a builder", m.Name))
	}
	if m.ExampleN <= 0 {
		panic(fmt.Sprintf("model: %q registered without an ExampleN", m.Name))
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := registry[m.Name]; dup {
		panic(fmt.Sprintf("model: duplicate registration of %q", m.Name))
	}
	registry[m.Name] = m
}

// Lookup resolves a model by name (case-insensitive).
func Lookup(name string) (Model, bool) {
	mu.RLock()
	defer mu.RUnlock()
	m, ok := registry[strings.ToLower(name)]
	return m, ok
}

// Names returns the registered model names, sorted.
func Names() []string {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns the registered models sorted by name.
func All() []Model {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Model, 0, len(registry))
	for _, m := range registry {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// find is Lookup with the unknown-name error, which lists what is registered.
func find(name string) (Model, error) {
	m, ok := Lookup(name)
	if !ok {
		return Model{}, fmt.Errorf("model: unknown model %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return m, nil
}

// Build assembles the named model's network: the one constructor the
// harness, the CLIs, the examples and the public facade build through.
func Build(name string, cfg BuildConfig) (*network.Fabric, []Node, error) {
	m, err := find(name)
	if err != nil {
		return nil, nil, err
	}
	return m.Build(cfg)
}

// CheckSize validates n against the named model's CheckN, if any.
func CheckSize(name string, n int) error {
	m, err := find(name)
	if err != nil || m.CheckN == nil {
		return err
	}
	return m.CheckN(n)
}

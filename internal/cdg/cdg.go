// Package cdg builds channel dependency graphs over the routes the simulator
// takes, for the deadlock-freedom tests. A vertex is a link's virtual channel;
// an edge u->v means a packet can hold u while requesting v. An acyclic graph
// is sufficient for deadlock freedom of deterministic wormhole routing (Dally
// & Seitz).
package cdg

import "quarc/internal/model"

// Channel is the virtual channel VC of the link leaving Node through output
// port Out.
type Channel struct{ Node, Out, VC int }

// Graph is a channel dependency graph.
type Graph map[Channel]map[Channel]bool

// AddRoute records the dependencies of a route given as its channels, in the
// order the packet takes them.
func (g Graph) AddRoute(chs []Channel) {
	for i, u := range chs {
		if g[u] == nil {
			g[u] = map[Channel]bool{}
		}
		if i+1 < len(chs) {
			g[u][chs[i+1]] = true
		}
	}
}

// Walked builds the graph over every unicast route of the named model's
// n-node network, as model.Routes walks it; vc maps the VC each hop's VCFunc
// chose (the identity, or a dateline-free rule for a negative control).
func Walked(name string, n int, vc func(int) int) (Graph, error) {
	fab, err := model.Routes(name, n)
	if err != nil {
		return nil, err
	}
	g := Graph{}
	var chs []Channel
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				chs = chs[:0]
				fab.Walk(s, d, func(node, out, v int) { chs = append(chs, Channel{node, out, vc(v)}) })
				g.AddRoute(chs)
			}
		}
	}
	return g, nil
}

// Cycle returns a directed cycle of the graph, or nil when it is acyclic
// (depth-first search).
func (g Graph) Cycle() []Channel {
	const (
		unseen = iota
		open
		done
	)
	state := map[Channel]int{}
	var stack []Channel
	var visit func(u Channel) []Channel
	visit = func(u Channel) []Channel {
		state[u] = open
		stack = append(stack, u)
		for v := range g[u] {
			switch state[v] {
			case open:
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == v {
						return append([]Channel(nil), stack[i:]...)
					}
				}
			case unseen:
				if c := visit(v); c != nil {
					return c
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[u] = done
		return nil
	}
	for u := range g {
		if state[u] == unseen {
			if c := visit(u); c != nil {
				return c
			}
		}
	}
	return nil
}

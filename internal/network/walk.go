package network

import (
	"fmt"

	"quarc/internal/flit"
	"quarc/internal/router"
)

// Walk follows the unicast route from src to dst as the running fabric takes
// it, without stepping: src's injection rule picks the injection port, then at
// each switch Router.Decide — the switch's own RouteFunc and VCFunc, checked
// as the switch checks them — picks the output and VC, and the wiring table
// names the next switch and the input lane (the VC) the header arrives in,
// until the route ejects. visit sees each link the packet holds, in order:
// the switch it leaves, the output port and the virtual channel. The packet's
// header record is the one a unicast from src to dst has in the packet table;
// its bitstring is empty, so the hop count it routes with is immaterial. Walk
// only reads the fabric, so walks may run concurrently, but not alongside a
// step.
func (f *Fabric) Walk(src, dst int, visit func(node, out, vc int)) {
	h := router.Header{Traffic: flit.Unicast, Src: int32(src), Dst: int32(dst)}
	_, in := f.bases[src].Inject(dst)
	node, lane := src, 0
	// A deterministic route that holds one link VC twice never ejects; no
	// switch has more than 64 outputs of 8 VCs.
	for hops := 0; ; hops++ {
		if hops > 512*f.N {
			panic(fmt.Sprintf("network: route %d -> %d does not terminate", src, dst))
		}
		dec, vc := f.Routers[node].Decide(in, lane, &h, 0)
		if vc < 0 {
			return
		}
		visit(node, dec.Out, vc)
		w := f.wires[node][dec.Out]
		if w.Sink {
			panic(fmt.Sprintf("network: route %d -> %d leaves node %d through unwired output %d", src, dst, node, dec.Out))
		}
		node, in, lane = w.Dst.Node, w.Dst.Port, vc
	}
}

// Endpoints describes node's adapter-side channels: how many injection ports
// its switch has (its input ports from injStart up), and whether it ejects
// through one shared, arbitrated output port rather than a dedicated path per
// input.
func (f *Fabric) Endpoints(node int) (inj int, sharedEject bool) {
	r := f.Routers[node]
	return r.NumInputs() - f.injStart, r.Config().EjectPort != router.NoOutput
}

package topology

// Virtual-channel discipline. Both rim rings are cycles in the channel
// dependency graph, so wormhole routing needs two virtual channels with a
// dateline (paper §2.1: "Each physical link is shared by two virtual
// channels in order to avoid deadlock"; §2.3.1: two lanes per input port).
// Packets travel on VC 0 until they traverse the dateline link of their rim
// ring (CW: the link n-1 -> 0; CCW: the link 0 -> n-1), from which point
// they use VC 1. Cross links carry packets only on their first hop, so they
// cannot close a cycle and always use VC 0.

// RimVC returns the virtual channel a packet uses on the rim link leaving
// node from in direction dir, given the VC it used on its previous hop (use
// 0 when entering the rim).
func RimVC(n int, dir Direction, from, cur int) int {
	if cur == 1 {
		return 1
	}
	if dir == CW && from == n-1 {
		return 1
	}
	if dir == CCW && from == 0 {
		return 1
	}
	return 0
}

package netsim

import "net/netip"

// seedARP plants a fresh cache entry on nic, as if it had heard mac announce ip.
func seedARP(nic *NIC, ip netip.Addr, mac MAC) {
	a, _ := toIP4(ip)
	nic.learn(a, mac)
}

// PoisonFreedBuffers makes the network overwrite every payload buffer the
// moment it is recycled. Tests turn it on to prove that no handler retains
// payload past its return.
func (n *Network) PoisonFreedBuffers() { n.poison = true }

// PacketsOutstanding reports how many packet records the network has created
// and not yet got back: zero whenever no datagram is in flight or queued.
func (n *Network) PacketsOutstanding() int { return n.packets.made - len(n.packets.free) }

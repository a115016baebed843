package netsim

// PoisonFreedBuffers makes the network overwrite every payload buffer the
// moment it is recycled. Tests turn it on to prove that no handler retains
// payload past its return.
func (n *Network) PoisonFreedBuffers() { n.poison = true }

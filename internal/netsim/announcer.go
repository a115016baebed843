package netsim

import (
	"net/netip"

	"wackamole/internal/arp"
)

// ARPAnnouncer implements arp.Notifier over a simulated host: acquiring a
// virtual address is followed by a gratuitous ARP reply on the segment the
// address belongs to, forcing routers and peers with stale cache entries to
// relearn the <IP, MAC> binding immediately (§5.1 of the paper).
type ARPAnnouncer struct {
	Host *Host
	// Disabled suppresses announcements; the ARP-spoofing ablation
	// experiment uses it to show the cost of waiting for cache expiry.
	Disabled bool
}

// Announce implements arp.Notifier.
func (a *ARPAnnouncer) Announce(vip netip.Addr) {
	if a.Disabled {
		return
	}
	for _, nic := range a.Host.nics {
		if nic.Prefix().Contains(vip) {
			// A host or interface that is down cannot announce; the next
			// owner's announcement will.
			_ = a.Host.SendGratuitousARP(nic, vip)
			return
		}
	}
}

// Withdraw implements arp.Notifier. Nothing to do: the next owner's
// announcement supersedes the binding.
func (a *ARPAnnouncer) Withdraw(netip.Addr) {}

var _ arp.Notifier = (*ARPAnnouncer)(nil)

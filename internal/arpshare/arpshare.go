// Package arpshare implements the ARP-cache-sharing mechanism of the
// paper's router application (§5.2): "each Wackamole daemon periodically
// sends data from its ARP cache to all other daemons. This makes it
// possible for a daemon to approximately know the set of machines that must
// be notified when it assumes responsibility for a virtual IP address."
// When this node acquires an address, it spoofs a unicast ARP reply to
// every known host on that address's network in addition to the broadcast
// gratuitous announcement — reaching devices that discard broadcast
// gratuitous ARP.
//
// The paper leaves "garbage collection techniques to make the ARP spoof
// notification more accurately targeted" as future work; this
// implementation includes one: shared entries expire after holdTime unless
// re-announced, bounding the notification set on large LANs.
package arpshare

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/env"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/wire"
)

// group is the process group the sharers exchange caches on, distinct from
// the main Wackamole group so the two wire protocols never mix.
const group = "wackamole-arp"

// defaultInterval separates cache announcements.
const defaultInterval = 10 * time.Second

// holdTime is how long an entry not re-announced lives before it is
// garbage-collected.
const holdTime = 60 * time.Second

// clientName is the sharer's client name on the local daemon.
const clientName = "arpshare"

// Config parameterizes a Sharer.
type Config struct {
	// Interval between cache announcements; zero means DefaultInterval.
	Interval time.Duration
}

func (c Config) interval() time.Duration {
	if c.Interval <= 0 {
		return defaultInterval
	}
	return c.Interval
}

// Entry is one known <IP, MAC> binding on the LAN.
type Entry struct {
	IP  netip.Addr
	MAC netsim.MAC
}

type knownEntry struct {
	mac      netsim.MAC
	lastSeen time.Time
}

// Sharer periodically announces this host's ARP cache to the group and
// aggregates everyone's announcements into the set of hosts to notify on
// take-over.
type Sharer struct {
	host    *netsim.Host
	cfg     Config
	sess    *gcs.Session
	known   map[netip.Addr]knownEntry
	timer   env.Timer
	running bool
}

// New connects a sharer to the host's local daemon. Call Start to begin
// sharing.
func New(host *netsim.Host, daemon *gcs.Daemon, cfg Config) (*Sharer, error) {
	sess, err := daemon.Connect(clientName)
	if err != nil {
		return nil, fmt.Errorf("arpshare: %w", err)
	}
	s := &Sharer{host: host, cfg: cfg, sess: sess, known: map[netip.Addr]knownEntry{}}
	s.timer = host.NewTimer(s.tick)
	sess.SetMessageHandler(func(from gcs.GroupMember, _ string, payload []byte) {
		if from.Daemon == daemon.ID() {
			return // our own announcement
		}
		s.onShare(payload)
	})
	if err := sess.Join(group); err != nil {
		return nil, fmt.Errorf("arpshare: %w", err)
	}
	return s, nil
}

// Start begins the periodic announcements.
func (s *Sharer) Start() {
	if s.running {
		return
	}
	s.running = true
	s.tick()
}

// tick is one sharing round; it re-arms the sharer's timer.
func (s *Sharer) tick() {
	s.announce()
	s.collect()
	s.timer.Reset(s.cfg.interval())
}

// announce multicasts this host's fresh ARP entries.
func (s *Sharer) announce() {
	var entries []Entry
	for _, nic := range s.host.NICs() {
		for ip, mac := range nic.ARPEntries() {
			entries = append(entries, Entry{IP: ip, MAC: mac})
		}
		// This host itself is notification-worthy for its peers.
		entries = append(entries, Entry{IP: nic.Primary(), MAC: nic.MAC()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].IP.Less(entries[j].IP) })
	if err := s.sess.Multicast(group, encodeShare(entries)); err != nil {
		_ = err // session severed; Stop will follow
	}
}

// onShare merges a peer's announcement.
func (s *Sharer) onShare(payload []byte) {
	entries, err := decodeShare(payload)
	if err != nil {
		return // garbage from a confused peer; ignore
	}
	now := s.host.Now()
	for _, e := range entries {
		s.known[e.IP] = knownEntry{mac: e.MAC, lastSeen: now}
	}
}

// collect garbage-collects entries that have not been re-announced within
// the hold time.
func (s *Sharer) collect() {
	cutoff := s.host.Now().Add(-holdTime)
	for ip, e := range s.known {
		if e.lastSeen.Before(cutoff) {
			delete(s.known, ip)
		}
	}
}

// Known returns the current notification set, sorted by address.
func (s *Sharer) Known() []Entry {
	out := make([]Entry, 0, len(s.known))
	for ip, e := range s.known {
		out = append(out, Entry{IP: ip, MAC: e.mac})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].IP.Less(out[j].IP) })
	return out
}

// Notifier wraps inner so that every announcement is followed by unicast
// spoofed ARP replies to each known host on the virtual address's network.
func (s *Sharer) Notifier(inner arp.Notifier) arp.Notifier {
	if inner == nil {
		inner = arp.NopNotifier{}
	}
	return &sharingNotifier{sharer: s, inner: inner}
}

type sharingNotifier struct {
	sharer *Sharer
	inner  arp.Notifier
}

// Announce implements arp.Notifier.
func (n *sharingNotifier) Announce(vip netip.Addr) {
	n.inner.Announce(vip)
	s := n.sharer
	for _, nic := range s.host.NICs() {
		if !nic.Prefix().Contains(vip) {
			continue
		}
		for ip, e := range s.known {
			if !nic.Prefix().Contains(ip) || nic.HasAddr(ip) {
				continue
			}
			if err := s.host.SendSpoofedARP(nic, vip, e.mac); err != nil {
				_ = err // interface mid-failure
			}
		}
		return
	}
}

// Withdraw implements arp.Notifier.
func (n *sharingNotifier) Withdraw(vip netip.Addr) { n.inner.Withdraw(vip) }

var _ arp.Notifier = (*sharingNotifier)(nil)

// encodeShare serializes entries as count-prefixed (IPv4, MAC) pairs.
func encodeShare(entries []Entry) []byte {
	w := wire.NewWriter(4 + 10*len(entries))
	w.U16(uint16(len(entries)))
	for _, e := range entries {
		a := e.IP.As4()
		w.U8(a[0])
		w.U8(a[1])
		w.U8(a[2])
		w.U8(a[3])
		m := e.MAC.Bytes()
		for _, b := range m {
			w.U8(b)
		}
	}
	return w.Bytes()
}

func decodeShare(payload []byte) ([]Entry, error) {
	r := wire.NewReader(payload)
	n := int(r.U16())
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		a := [4]byte{r.U8(), r.U8(), r.U8(), r.U8()}
		var m [6]byte
		for j := range m {
			m[j] = r.U8()
		}
		entries = append(entries, Entry{IP: netip.AddrFrom4(a), MAC: netsim.MACFromBytes(m)})
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return entries, nil
}

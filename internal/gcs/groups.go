package gcs

import (
	"slices"
	"sort"

	"wackamole/internal/wire"
)

// GroupMember identifies one client process within one group: the daemon it
// connects through plus its client name. Members order lexicographically by
// (daemon, client), giving every daemon the identical uniquely ordered
// membership list the Wackamole algorithm requires (§3.1).
type GroupMember struct {
	Daemon DaemonID
	Client string
}

// String formats the member as daemon/client.
func (m GroupMember) String() string { return string(m.Daemon) + "/" + m.Client }

// less orders members by (daemon, client).
func (m GroupMember) less(o GroupMember) bool {
	if m.Daemon != o.Daemon {
		return m.Daemon < o.Daemon
	}
	return m.Client < o.Client
}

// View is a group membership notification. Any two clients that receive a
// view with the same ID received identical, identically ordered Members —
// the property the Wackamole state synchronization depends on.
type View struct {
	ID      ViewID
	Group   string
	Members []GroupMember
}

// groupLayer maintains the replicated group-membership state above the
// totally ordered daemon stream. Because every daemon feeds it the same
// messages in the same order, its state and the views it emits are identical
// across daemons (a state-machine replication, as the paper notes in §7).
type groupLayer struct {
	d        *Daemon
	sessions map[string]*Session
	groups   map[string][]GroupMember
	// names interns the client and group names of inbound payloads, under
	// the same rule as the daemon's ID table.
	names idTable

	synced bool
	// contributions holds each ring member's groups-state, by ring position,
	// and contributed marks the positions heard from on this ring. The lists
	// keep their storage from one ring to the next; decoding is the spare one
	// a groups-state is decoded into before it takes its sender's place.
	contributions [][]membership
	contributed   []bool
	decoding      []membership
	pendingOps    []*dataMsg
	pendingCasts  []*dataMsg
	lastViewID    ViewID
}

// stateEntry is one client of a groups-state as it is encoded: the client and
// the groups it has joined.
type stateEntry struct {
	client string
	groups []string
}

// membership is one (client, group) pair of a decoded groups-state.
type membership struct{ client, group string }

func newGroupLayer(d *Daemon) *groupLayer {
	return &groupLayer{
		d:        d,
		sessions: map[string]*Session{},
		groups:   map[string][]GroupMember{},
		names:    idTable{},
		// A daemon with no installed ring is trivially synced with itself;
		// real synchronization state arrives with the first installation.
		synced: false,
	}
}

// retirePending runs at every daemon membership installation, before the
// retiring ring's records go back to the daemon's free list: the pending lists
// are the group layer's only hold on them. Ops buffered during a
// synchronization that never completed (the ring died first) must not be
// replayed on the new ring: a daemon joining from outside the dead ring never
// received them, so replaying them at the old cohort alone diverges the
// replicated map. Instead, fold the membership effect of our OWN clients'
// buffered ops into the session bookkeeping so the state transfer onInstall
// sends carries it to every member — including the outsiders — and discard
// the buffers. Buffered casts are dropped for the same reason: delivering them
// only where they were buffered would break delivery agreement across the new
// membership.
func (g *groupLayer) retirePending() {
	for _, m := range g.pendingOps {
		if m.Origin != g.d.id {
			continue
		}
		client, grp, err := g.names.decodeGroupOp(m.Payload)
		if err != nil {
			continue
		}
		if s, ok := g.sessions[client]; ok {
			if m.Kind == dkGroupJoin {
				s.joined[grp] = true
			} else {
				delete(s.joined, grp)
			}
		}
	}
	g.pendingOps = nil
	g.pendingCasts = nil
}

// onInstall runs after every daemon membership installation: group state
// must be resynchronized by exchanging each daemon's local client list as
// the first totally ordered messages on the new ring.
func (g *groupLayer) onInstall() {
	g.synced = false
	for len(g.contributions) < len(g.d.ring.members) {
		g.contributions = append(g.contributions, nil)
	}
	g.contributed = sized(g.contributed, len(g.d.ring.members))
	var entries []stateEntry
	names := make([]string, 0, len(g.sessions))
	for name := range g.sessions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := g.sessions[name]
		gs := make([]string, 0, len(s.joined))
		for grp := range s.joined {
			gs = append(gs, grp)
		}
		sort.Strings(gs)
		entries = append(entries, stateEntry{client: name, groups: gs})
	}
	m := g.d.sendData(dkGroupsState)
	m.Payload = appendGroupsState(m.Payload, entries)
}

// stopAll severs every session when the daemon shuts down.
func (g *groupLayer) stopAll() {
	for _, s := range g.sessions {
		s.disconnected()
	}
	g.sessions = map[string]*Session{}
}

// deliverData consumes one totally ordered message from the daemon.
func (g *groupLayer) deliverData(m *dataMsg) {
	switch m.Kind {
	case dkGroupsState:
		g.onGroupsState(m)
	case dkGroupJoin, dkGroupLeave:
		if !g.synced {
			g.pendingOps = append(g.pendingOps, m)
			return
		}
		g.applyMembershipOp(m, true)
	case dkGroupCast:
		if !g.synced {
			g.pendingCasts = append(g.pendingCasts, m)
			return
		}
		g.deliverCast(m)
	default:
		if g.d.logging {
			g.d.env.Log.Logf("gcs %s: drop data with unknown kind %d", g.d.id, m.Kind)
		}
	}
}

func (g *groupLayer) onGroupsState(m *dataMsg) {
	if m.Ring != g.d.ring.id {
		// A groups-state from an interrupted synchronization on a previous
		// ring; the new installation superseded it.
		return
	}
	var err error
	g.decoding, err = g.names.decodeGroupsState(m.Payload, g.decoding)
	if err != nil {
		if g.d.logging {
			g.d.env.Log.Logf("gcs %s: bad groups-state from %s: %v", g.d.id, m.Origin, err)
		}
		return
	}
	if i := slices.Index(g.d.ring.members, m.Origin); i >= 0 {
		g.contributions[i], g.decoding = g.decoding, g.contributions[i]
		g.contributed[i] = true
	}
	if slices.Contains(g.contributed, false) {
		return
	}
	g.completeSync(m)
}

// completeSync rebuilds the replicated group map from all contributions,
// replays membership operations that were delivered before synchronization
// completed, then emits views and flushes buffered casts.
func (g *groupLayer) completeSync(last *dataMsg) {
	g.groups = map[string][]GroupMember{}
	// insertMember keeps every list sorted, so the order the contributions
	// are merged in does not show.
	for i, daemon := range g.d.ring.members {
		for _, e := range g.contributions[i] {
			g.insertMember(e.group, GroupMember{Daemon: daemon, Client: e.client})
		}
	}
	g.synced = true
	g.lastViewID = ViewID{Ring: last.Ring, Seq: last.Seq}
	pendingOps := g.pendingOps
	g.pendingOps = nil
	changed := map[string]bool{}
	for grp := range g.groups {
		changed[grp] = true
	}
	for _, op := range pendingOps {
		grp := g.applyMembershipOp(op, false)
		if grp != "" {
			changed[grp] = true
		}
		g.lastViewID = ViewID{Ring: op.Ring, Seq: op.Seq}
	}
	// One coalesced view per group reflecting the final state.
	groups := make([]string, 0, len(changed))
	for grp := range changed {
		groups = append(groups, grp)
	}
	sort.Strings(groups)
	for _, grp := range groups {
		g.emitView(grp)
	}
	casts := g.pendingCasts
	g.pendingCasts = nil
	for _, c := range casts {
		g.deliverCast(c)
	}
}

// applyMembershipOp updates the replicated map for one join/leave and, when
// emit is set, delivers the resulting view. It returns the affected group.
func (g *groupLayer) applyMembershipOp(m *dataMsg, emit bool) string {
	client, grp, err := g.names.decodeGroupOp(m.Payload)
	if err != nil {
		if g.d.logging {
			g.d.env.Log.Logf("gcs %s: bad group op from %s: %v", g.d.id, m.Origin, err)
		}
		return ""
	}
	member := GroupMember{Daemon: m.Origin, Client: client}
	var mutated bool
	if m.Kind == dkGroupJoin {
		mutated = g.insertMember(grp, member)
	} else {
		mutated = g.removeMember(grp, member)
	}
	// Keep local session bookkeeping in step with the replicated state.
	if member.Daemon == g.d.id {
		if s, ok := g.sessions[client]; ok {
			if m.Kind == dkGroupJoin {
				s.joined[grp] = true
			} else {
				delete(s.joined, grp)
			}
		}
	}
	if !mutated {
		return ""
	}
	g.lastViewID = ViewID{Ring: m.Ring, Seq: m.Seq}
	if emit {
		g.emitView(grp)
	}
	return grp
}

func (g *groupLayer) insertMember(grp string, m GroupMember) bool {
	list := g.groups[grp]
	i := sort.Search(len(list), func(i int) bool { return !list[i].less(m) })
	if i < len(list) && list[i] == m {
		return false
	}
	list = append(list, GroupMember{})
	copy(list[i+1:], list[i:])
	list[i] = m
	g.groups[grp] = list
	return true
}

func (g *groupLayer) removeMember(grp string, m GroupMember) bool {
	list := g.groups[grp]
	for i, x := range list {
		if x == m {
			g.groups[grp] = append(list[:i], list[i+1:]...)
			if len(g.groups[grp]) == 0 {
				delete(g.groups, grp)
			}
			return true
		}
	}
	return false
}

// emitView delivers the group's current membership to every local member.
func (g *groupLayer) emitView(grp string) {
	list := g.groups[grp]
	for _, m := range list {
		if m.Daemon != g.d.id {
			continue
		}
		s, ok := g.sessions[m.Client]
		if !ok || s.closed {
			continue
		}
		view := View{
			ID:      g.lastViewID,
			Group:   grp,
			Members: append([]GroupMember(nil), list...),
		}
		if s.viewH != nil {
			s.viewH(view)
		}
	}
}

// deliverCast hands one cast to the local members of its group. The body
// aliases the stored message — which retransmission and the Virtual Synchrony
// flush still need — so handlers get it under the rule env.Handler states for
// datagrams: neither kept nor modified past their return.
func (g *groupLayer) deliverCast(m *dataMsg) {
	client, grp, body, err := g.names.decodeGroupCast(m.Payload)
	if err != nil {
		if g.d.logging {
			g.d.env.Log.Logf("gcs %s: bad group cast from %s: %v", g.d.id, m.Origin, err)
		}
		return
	}
	from := GroupMember{Daemon: m.Origin, Client: client}
	for _, member := range g.groups[grp] {
		if member.Daemon != g.d.id {
			continue
		}
		s, ok := g.sessions[member.Client]
		if !ok || s.closed || s.msgH == nil {
			continue
		}
		s.msgH(from, grp, body)
	}
}

// ---- payload encodings ----------------------------------------------------

// appendGroupsState appends the encoding of entries to b.
func appendGroupsState(b []byte, entries []stateEntry) []byte {
	n := 2
	for _, e := range entries {
		n += 2 + len(e.client) + 2
		for _, g := range e.groups {
			n += 2 + len(g)
		}
	}
	w := wire.Into(slices.Grow(b, n))
	w.U16(uint16(len(entries)))
	for _, e := range entries {
		w.String(e.client)
		w.StringList(e.groups)
	}
	return w.Bytes()
}

// decodeGroupsState decodes a groups-state into dst[:0] as the memberships it
// declares; a client that has joined nothing declares none.
func (t idTable) decodeGroupsState(b []byte, dst []membership) ([]membership, error) {
	r := wire.NewReader(b)
	dst = dst[:0]
	// An entry is at least a name prefix and a list count, a group a prefix.
	for n := r.Count16(4); n > 0 && r.Err() == nil; n-- {
		client := t.readName(r)
		for k := r.Count16(2); k > 0 && r.Err() == nil; k-- {
			dst = append(dst, membership{client: client, group: t.readName(r)})
		}
	}
	return dst, r.Done()
}

// appendGroupOp appends the encoding of a join or leave to b.
func appendGroupOp(b []byte, client, group string) []byte {
	w := wire.Into(slices.Grow(b, 2+len(client)+2+len(group)))
	w.String(client)
	w.String(group)
	return w.Bytes()
}

func (t idTable) decodeGroupOp(b []byte) (client, group string, err error) {
	r := wire.NewReader(b)
	client = t.readName(r)
	group = t.readName(r)
	return client, group, r.Done()
}

// appendGroupCast appends the encoding of a cast to b.
func appendGroupCast(b []byte, client, group string, body []byte) []byte {
	w := wire.Into(slices.Grow(b, 2+len(client)+2+len(group)+2+len(body)))
	w.String(client)
	w.String(group)
	w.Bytes16(body)
	return w.Bytes()
}

// decodeGroupCast decodes in place: body aliases b.
func (t idTable) decodeGroupCast(b []byte) (client, group string, body []byte, err error) {
	r := wire.NewReader(b)
	client = t.readName(r)
	group = t.readName(r)
	body = r.View16()
	return client, group, body, r.Done()
}

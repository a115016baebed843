// Package wackamole is a from-scratch Go implementation of Wackamole, the
// N-way fail-over infrastructure for reliable servers and routers of Amir,
// Caudy, Munjal, Schlossnagle and Tutu (DSN 2003). It keeps every public
// virtual IP address of a cluster covered by exactly one live server, for
// any pattern of server crashes, network partitions and merges, by running
// a provably correct state-synchronization algorithm over a group
// communication substrate with Virtual Synchrony semantics.
//
// A Node bundles the three components of the paper's architecture
// (Figure 1): the group-communication daemon (package gcs, standing in for
// the Spread toolkit), the Wackamole state-synchronization engine (package
// core), and the IP-address control mechanism plus ARP notification
// (packages ipmgr and arp). Nodes run identically over the deterministic
// network simulator (package netsim, see Cluster) and over real UDP sockets
// (package env/realtime, see cmd/wackamole).
package wackamole

import (
	"fmt"
	"slices"
	"time"

	"wackamole/internal/arp"
	"wackamole/internal/core"
	"wackamole/internal/env"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/ipmgr"
	"wackamole/internal/metrics"
	"wackamole/internal/obs"
)

// DefaultGroup is the process group Wackamole daemons join.
const DefaultGroup = "wackamole"

// DefaultPort is the UDP port the group-communication daemons use.
const DefaultPort = 4803

// ClientName is the name under which the Wackamole engine connects to its
// local group-communication daemon.
const ClientName = "wackd"

// reconnectInterval paces reconnection attempts after the engine loses its
// daemon connection (§4.2 of the paper).
const reconnectInterval = time.Second

// Config configures one Node.
type Config struct {
	// Group names the process group; every node of one cluster must agree.
	// Empty means DefaultGroup.
	Group string
	// GCS holds the group-communication timeouts (the paper's Table 1).
	GCS gcs.Config
	// Engine holds the Wackamole algorithm configuration: the virtual
	// address groups, preferences, and balance/maturity behaviour.
	Engine core.Config
}

func (c Config) group() string {
	if c.Group == "" {
		return DefaultGroup
	}
	return c.Group
}

// Node is one Wackamole instance: a group-communication daemon, the
// state-synchronization engine, and the address control glue. Like
// everything in this module, it must be driven from its Env's single
// callback loop.
type Node struct {
	env     env.Env
	cfg     Config
	daemon  *gcs.Daemon
	sess    *gcs.Session
	engine  *core.Engine
	ips     *ipmgr.Manager
	health  *health.Monitor
	started bool
	stopped bool

	// members is the current view as the group layer names it and memberIDs
	// the same list as the engine does, position for position: the seam
	// between the two formats a member once per view it first appears in, not
	// once per message.
	members   []gcs.GroupMember
	memberIDs []core.MemberID
}

// memberID names m the way the engine knows it: the string built when m
// entered the view, or a fresh one for anybody else.
func (n *Node) memberID(m gcs.GroupMember) core.MemberID {
	if i := slices.Index(n.members, m); i >= 0 {
		return n.memberIDs[i]
	}
	return core.MemberID(m.String())
}

// Tracer returns the tracer the node was built with; nil (a valid, disabled
// tracer) when its Env carried none.
func (n *Node) Tracer() *obs.Tracer { return n.env.Tracer }

// Metrics returns the registry the node was built with; nil (a valid,
// disabled registry) when its Env carried none.
func (n *Node) Metrics() *metrics.Registry { return n.env.Metrics }

// SetHealth installs a detection-quality monitor on the node's daemon (nil
// disables it); see gcs.Daemon.SetHealth for why this one component is
// installed rather than carried by the Env. Call before Start.
func (n *Node) SetHealth(m *health.Monitor) {
	n.health = m
	n.daemon.SetHealth(m)
}

// Health returns the node's installed monitor; nil (a valid, disabled
// monitor) when none was set.
func (n *Node) Health() *health.Monitor { return n.health }

// NewNode builds a Node on e. backend performs the platform-specific
// address manipulation; notify announces ownership changes (nil disables
// notification — only sensible in unit tests, since without ARP updates
// routers keep forwarding to the failed server until their caches expire).
//
// The node's instruments are the ones e carries: the daemon and the engine
// trace to e.Tracer and measure into e.Metrics, and with e.HLC set the daemon
// stamps every wire message and the tracer every event, so traces from
// different nodes merge into one causally consistent timeline (cmd/wacktrace).
func NewNode(e env.Env, cfg Config, backend ipmgr.Backend, notify arp.Notifier) (*Node, error) {
	if e.Log == nil {
		e.Log = env.NopLogger{}
	}
	if e.HLC != nil {
		e.Tracer.SetHLC(e.HLC)
	}
	daemon, err := gcs.NewDaemon(e, cfg.GCS)
	if err != nil {
		return nil, fmt.Errorf("wackamole: %w", err)
	}
	n := &Node{env: e, cfg: cfg, daemon: daemon, ips: ipmgr.New(backend)}
	self := gcs.GroupMember{Daemon: daemon.ID(), Client: ClientName}
	engine, err := core.NewEngine(cfg.Engine, core.Deps{
		Self: core.MemberID(self.String()),
		Cast: func(payload []byte) error {
			if n.sess == nil {
				return fmt.Errorf("wackamole: not connected")
			}
			return n.sess.Multicast(n.cfg.group(), payload)
		},
		IPs:     n.ips,
		Notify:  notify,
		Clock:   e.Clock,
		Log:     e.Log,
		Tracer:  e.Tracer,
		Metrics: e.Metrics,
	})
	if err != nil {
		return nil, err
	}
	n.engine = engine
	return n, nil
}

// Start launches the daemon, connects the engine to it and joins the group.
func (n *Node) Start() error {
	if n.started {
		return fmt.Errorf("wackamole: already started")
	}
	n.started = true
	n.daemon.Start()
	n.engine.Start()
	return n.connect()
}

// connect attaches a fresh session and joins the group; used at startup and
// by the reconnection loop.
func (n *Node) connect() error {
	sess, err := n.daemon.Connect(ClientName)
	if err != nil {
		return fmt.Errorf("wackamole: connect: %w", err)
	}
	n.sess = sess
	group := n.cfg.group()
	sess.SetViewHandler(func(v gcs.View) {
		if v.Group != group {
			return
		}
		ids := make([]core.MemberID, len(v.Members))
		for i, m := range v.Members {
			ids[i] = n.memberID(m) // members that stay keep their string
		}
		n.members, n.memberIDs = v.Members, ids
		n.engine.OnView(core.View{ID: v.ID.String(), Members: ids})
	})
	sess.SetMessageHandler(func(from gcs.GroupMember, g string, payload []byte) {
		if g != group {
			return
		}
		n.engine.OnMessage(n.memberID(from), payload)
	})
	sess.SetDisconnectHandler(func() {
		// §4.2: a Wackamole daemon disconnected from its group
		// communication drops all virtual interfaces and periodically
		// attempts to reconnect.
		n.sess = nil
		n.engine.OnDisconnect()
		n.scheduleReconnect()
	})
	return sess.Join(group)
}

func (n *Node) scheduleReconnect() {
	n.env.Clock.AfterFunc(reconnectInterval, func() {
		if n.stopped || n.sess != nil {
			return
		}
		if err := n.connect(); err != nil {
			n.env.Log.Logf("wackamole: reconnect failed: %v; retrying", err)
			n.scheduleReconnect()
		}
	})
}

// LeaveService departs gracefully: the engine releases its addresses and
// the client leaves the group, while the local group-communication daemon
// keeps running. The remaining members reallocate within milliseconds (the
// §6 voluntary-departure measurement), because a client leave does not
// trigger daemon-level reconfiguration.
func (n *Node) LeaveService() error {
	if n.sess == nil {
		return fmt.Errorf("wackamole: not connected")
	}
	sess := n.sess
	n.sess = nil
	if err := sess.Disconnect(); err != nil {
		return err
	}
	n.engine.OnDisconnect()
	n.engine.Stop()
	return nil
}

// JoinService re-admits a node that left service (LeaveService) without
// stopping: the engine rewinds to the immature state — modelling the §3.4
// bootstrap of a restarted process, so the rejoining node takes no load
// until it meets a mature member or its maturity window expires — and a
// fresh session joins the group. Together with LeaveService this is the
// rolling-restart primitive: drain, do maintenance, join, and the placement
// policy decides how much of the table moves to re-admit the node.
func (n *Node) JoinService() error {
	if !n.started {
		return fmt.Errorf("wackamole: not started")
	}
	if n.stopped {
		return fmt.Errorf("wackamole: stopped")
	}
	if n.sess != nil {
		return fmt.Errorf("wackamole: already in service")
	}
	n.engine.ResetMaturity()
	return n.connect()
}

// Stop shuts the node down completely: graceful service departure followed
// by a graceful daemon departure, so the surviving daemons reconfigure
// after one discovery round instead of waiting out fault detection.
func (n *Node) Stop() {
	n.stopped = true
	if n.sess != nil {
		if err := n.LeaveService(); err != nil {
			n.env.Log.Logf("wackamole: leave on stop: %v", err)
		}
	}
	n.engine.Stop()
	n.daemon.Leave()
}

// Status returns the engine's current snapshot.
func (n *Node) Status() core.Status { return n.engine.Snapshot() }

// Engine exposes the state-synchronization engine (administrative channel
// operations like TriggerBalance go through it).
func (n *Node) Engine() *core.Engine { return n.engine }

// Daemon exposes the node's group-communication daemon.
func (n *Node) Daemon() *gcs.Daemon { return n.daemon }

// Session exposes the engine's current daemon session; nil while
// disconnected. Tests use it for §4.2 fault injection via Sever.
func (n *Node) Session() *gcs.Session { return n.sess }

// Connected reports whether the node currently holds a daemon session —
// i.e. it is in service. False after LeaveService (until JoinService
// re-admits the node) and in the window between a severed session and its
// automatic reconnect.
func (n *Node) Connected() bool { return n.sess != nil }

// Member returns the node's cluster-wide member identity.
func (n *Node) Member() core.MemberID {
	return core.MemberID(gcs.GroupMember{Daemon: n.daemon.ID(), Client: ClientName}.String())
}

// Package ctl implements the administrative control channel of §4.2 ("an
// input channel to allow administrative control of a cluster's behavior"):
// a line-oriented TCP protocol served by cmd/wackamole and spoken by
// cmd/wackactl. One command per connection; the response is plain text.
package ctl

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"time"

	"wackamole"
	"wackamole/internal/env/realtime"
	"wackamole/internal/gcs"
	"wackamole/internal/health"
	"wackamole/internal/invariant"
	"wackamole/internal/obs"
)

// Commands understood by the server.
const (
	CmdStatus  = "status"
	cmdBalance = "balance"
	cmdJoin    = "join"
	cmdDrain   = "drain"
	cmdDump    = "dump"
	cmdHelp    = "help"
)

// maxLine bounds a command line, newline included. Every command fits in a
// few bytes; a longer line is refused rather than buffered.
const maxLine = 64

// Server answers control commands, executing node operations on its loop so
// the single-threaded protocol contract holds.
type Server struct {
	ln       net.Listener
	loop     *realtime.Loop
	node     *wackamole.Node
	recorder *obs.FlightRecorder
	done     chan struct{}
}

// Serve listens on addr (e.g. "127.0.0.1:4804").
func Serve(addr string, loop *realtime.Loop, node *wackamole.Node) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ctl: %w", err)
	}
	s := &Server{ln: ln, loop: loop, node: node, done: make(chan struct{})}
	go s.acceptLoop()
	return s, nil
}

// SetRecorder arms the dump command with the daemon's flight recorder; nil
// (the default) makes dump report that no recorder is configured.
func (s *Server) SetRecorder(f *obs.FlightRecorder) { s.recorder = f }

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and waits for the accept loop to exit.
func (s *Server) Close() error {
	err := s.ln.Close()
	<-s.done
	return err
}

func (s *Server) acceptLoop() {
	defer close(s.done)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return
	}
	line, err := bufio.NewReaderSize(conn, maxLine).ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		_, _ = fmt.Fprintf(conn, "error: command line longer than %d bytes\n", maxLine)
		return
	}
	if err != nil && len(line) == 0 {
		return
	}
	reply := s.execute(strings.TrimSpace(string(line)))
	_, _ = conn.Write([]byte(reply))
}

// execute runs one command on the node's loop and returns its response.
func (s *Server) execute(cmd string) string {
	if cmd == cmdDump {
		// Deliberately NOT posted to the node loop: a dump is file I/O
		// (potentially slow disk) and the recorder is safe from any
		// goroutine — the whole point of the flight recorder is to work
		// when the protocol loop might be wedged.
		return s.dump()
	}
	result := make(chan string, 1)
	s.loop.Post(func() { result <- s.run(cmd) })
	select {
	case r := <-result:
		return r
	case <-time.After(5 * time.Second):
		return "error: node loop unresponsive\n"
	}
}

func (s *Server) dump() string {
	if s.recorder == nil {
		return "error: no flight recorder configured (set flight_dir)\n"
	}
	dir, err := s.recorder.Dump("wackactl")
	if err != nil {
		return fmt.Sprintf("error: dump failed: %v\n", err)
	}
	return fmt.Sprintf("dumped flight bundle: %s\n", dir)
}

func (s *Server) run(cmd string) string {
	switch cmd {
	case CmdStatus:
		return formatStatus(s.node)
	case cmdBalance:
		if err := s.node.Engine().TriggerBalance(); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return "balance triggered\n"
	case cmdDrain:
		if err := s.node.LeaveService(); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return "left service; addresses released\n"
	case cmdJoin:
		if err := s.node.JoinService(); err != nil {
			return fmt.Sprintf("error: %v\n", err)
		}
		return "rejoining; maturity bootstrap restarted\n"
	case cmdHelp, "":
		return "commands: status | balance | join | drain | dump | help\n"
	default:
		return fmt.Sprintf("error: unknown command %q (try help)\n", cmd)
	}
}

// formatStatus renders a node snapshot as the status response.
func formatStatus(node *wackamole.Node) string {
	st := node.Status()
	var b strings.Builder
	fmt.Fprintf(&b, "member:  %s\n", node.Member())
	fmt.Fprintf(&b, "state:   %s\n", st.State)
	fmt.Fprintf(&b, "mature:  %v\n", st.Mature)
	fmt.Fprintf(&b, "view:    %s (%d members)\n", st.ViewID, len(st.Members))
	fmt.Fprintf(&b, "owned:   %s\n", strings.Join(st.Owned, " "))
	d := node.Daemon()
	if d.Detector() == gcs.DetectorPhi {
		fmt.Fprintf(&b, "detect:  phi (threshold %.1f, floor T=%s)\n",
			health.Threshold, d.FaultDetectTimeout())
	} else {
		fmt.Fprintf(&b, "detect:  fixed (T=%s)\n", d.FaultDetectTimeout())
	}
	ds := node.Daemon().Stats()
	fmt.Fprintf(&b, "daemon:  installs=%d reconfigs=%d sent=%d delivered=%d retrans=%d flushed=%d\n",
		ds.MembershipsInstalled, ds.Reconfigurations, ds.DataSent, ds.DataDelivered,
		ds.DataRetransmitted, ds.RecoveryFlushes)
	es := node.Engine().Stats()
	fmt.Fprintf(&b, "engine:  acquires=%d releases=%d announces=%d\n",
		es.Acquires, es.Releases, es.Announces)
	fmt.Fprintf(&b, "placement: policy=%s moves=%d skew=%d\n",
		node.Engine().PlacementName(), es.Moves, es.Skew)
	if tr := node.Tracer(); tr.Enabled() {
		fmt.Fprintf(&b, "events:  buffered=%d emitted=%d dropped=%d\n",
			tr.Len(), tr.Emitted(), tr.Dropped())
	}
	if reg := node.Metrics(); reg.Enabled() {
		snap := reg.Snapshot()
		rot := snap.MergedHistogram("gcs_token_rotation_seconds")
		del := snap.MergedHistogram("gcs_delivery_seconds")
		fmt.Fprintf(&b, "latency: rotation p50=%s p99=%s (%d obs) delivery p99=%s (%d obs)\n",
			rot.QuantileDuration(0.50), rot.QuantileDuration(0.99), rot.Count(),
			del.QuantileDuration(0.99), del.Count())
		// Count-valued histogram: quantiles are ceiled to whole retransmits.
		if ret := snap.MergedHistogram("gcs_retransmits_per_reconfig"); ret.Count() > 0 {
			fmt.Fprintf(&b, "repair:  retransmits/reconfig p50=%d p99=%d (%d reconfigs)\n",
				ret.QuantileCount(0.50), ret.QuantileCount(0.99), ret.Count())
		}
		if fam := snap.Family("invariant_oracle_violations_total"); fam != nil {
			byOracle := map[string]float64{}
			var total float64
			for _, ser := range fam.Series {
				for _, l := range ser.Labels {
					if l.Key == "oracle" {
						byOracle[l.Value] += ser.Value
					}
				}
				total += ser.Value
			}
			parts := make([]string, 0, len(invariant.Oracles))
			for _, o := range invariant.Oracles {
				parts = append(parts, fmt.Sprintf("%s=%d", o, int64(byOracle[o])))
			}
			fmt.Fprintf(&b, "invariants: violations=%d (%s)\n", int64(total), strings.Join(parts, " "))
		}
	}
	if h := node.Health(); h != nil {
		// Margin is how much suspicion headroom each peer has before the
		// detector fires: threshold − phi, clamped at zero once suspected.
		parts := []string{}
		for _, ph := range h.Snapshot(time.Now()) {
			margin := health.Threshold - ph.Phi
			if margin < 0 {
				margin = 0
			}
			parts = append(parts, fmt.Sprintf("%s phi=%.2f margin=%.2f last=%s samples=%d",
				ph.Peer, ph.Phi, margin, ph.LastHeard.Round(time.Millisecond), ph.Samples))
		}
		line := strings.Join(parts, " | ")
		if line == "" {
			line = "(no peers)"
		}
		fmt.Fprintf(&b, "health:  %s\n", line)
	}
	names := make([]string, 0, len(st.Table))
	for g := range st.Table {
		names = append(names, g)
	}
	sort.Strings(names)
	for _, g := range names {
		owner := string(st.Table[g])
		if owner == "" {
			owner = "(uncovered)"
		}
		fmt.Fprintf(&b, "table:   %-12s -> %s\n", g, owner)
	}
	return b.String()
}

// Send connects to a control server, issues one command and returns the
// response.
func Send(addr, cmd string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return "", fmt.Errorf("ctl: %w", err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		return "", fmt.Errorf("ctl: %w", err)
	}
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		return "", fmt.Errorf("ctl: %w", err)
	}
	var b strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		b.Write(buf[:n])
		if err != nil {
			break // EOF ends the response
		}
	}
	return b.String(), nil
}

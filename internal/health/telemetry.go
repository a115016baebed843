// The health frame codec: a compact, HLC-stamped encoding of one daemon's
// view of the cluster — its suspicion vector, membership view, owned VIP
// set and key protocol counters. No daemon sends frames any more; the codec
// stays for the benchmark module's health.frame_encode_ns rig, and the
// decoder for the codec's own tests.
package health

import (
	"encoding/binary"
	"errors"
	"fmt"

	"wackamole/internal/obs"
	"wackamole/internal/wire"
)

// Frame wire format constants. The magic deliberately differs from the gcs
// header ('W','G') so a frame mis-delivered to a daemon port is logged and
// dropped as an unknown packet rather than parsed.
const (
	frameMagic0  = 'W'
	frameMagic1  = 'H'
	frameVersion = 1

	// maxFrameList bounds every list in a frame (members, owned groups,
	// peers); a decoder rejects larger counts before allocating.
	maxFrameList = 1024
)

// PeerStatus is one entry of a frame's suspicion vector: the publishing
// node's current shadow-detector view of one peer.
type PeerStatus struct {
	// Peer is the observed daemon's identity.
	Peer string `json:"peer"`
	// PhiMilli is the phi suspicion level in fixed-point milli-phi.
	PhiMilli uint32 `json:"phi_milli"`
	// LastHeardNS is the age of the peer's most recent signal when the
	// frame was built, in nanoseconds.
	LastHeardNS uint64 `json:"last_heard_ns"`
	// Samples is the inter-arrival window population.
	Samples uint32 `json:"samples"`
	// Suspected reports an uncleared phi threshold crossing.
	Suspected bool `json:"suspected"`
}

// Frame is one telemetry datagram: a self-contained snapshot of how one
// daemon sees the cluster. Fields marshal to JSON for NDJSON frame logs.
type Frame struct {
	// Node is the publishing daemon's identity.
	Node string `json:"node"`
	// Seq increments per published frame; gaps reveal datagram loss.
	Seq uint64 `json:"seq"`
	// HLC is the publisher's hybrid logical clock at build time; it totally
	// orders frames across nodes the same way trace events are ordered.
	HLC obs.HLC `json:"hlc"`
	// SkewNS is the largest wall-clock skew the publisher's HLC has
	// absorbed from any peer, in nanoseconds.
	SkewNS int64 `json:"skew_ns"`
	// View is the installed membership view identity.
	View string `json:"view"`
	// State is the daemon's protocol state (gather/run/...).
	State string `json:"state"`
	// Mature reports §3.4 maturity.
	Mature bool `json:"mature"`
	// Generation is the health monitor's membership generation.
	Generation uint64 `json:"generation"`
	// Members lists the installed view's members.
	Members []string `json:"members,omitempty"`
	// Owned lists the VIP groups this node currently claims.
	Owned []string `json:"owned,omitempty"`
	// Peers is the suspicion vector, sorted by peer name.
	Peers []PeerStatus `json:"peers,omitempty"`
	// Installs, Reconfigs and Delivered are the daemon's cumulative
	// counters; subscribers difference consecutive frames for rates.
	Installs  uint64 `json:"installs"`
	Reconfigs uint64 `json:"reconfigs"`
	Delivered uint64 `json:"delivered"`
	// FramesPublished and FramesDropped count this publisher's own sends,
	// so the dashboard can report telemetry-channel loss.
	FramesPublished uint64 `json:"frames_published"`
	FramesDropped   uint64 `json:"frames_dropped"`
}

// AppendFrame encodes f to the telemetry wire format, appending to dst and
// returning the extended slice. With a reused dst of sufficient capacity it
// performs no allocation. Strings longer than 64KB and lists longer than
// maxFrameList are truncated (never produced by real publishers).
func AppendFrame(dst []byte, f *Frame) []byte {
	dst = append(dst, frameMagic0, frameMagic1, frameVersion)
	dst = appendString(dst, f.Node)
	dst = binary.BigEndian.AppendUint64(dst, f.Seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.HLC.Wall))
	dst = binary.BigEndian.AppendUint32(dst, f.HLC.Logical)
	dst = binary.BigEndian.AppendUint64(dst, uint64(f.SkewNS))
	dst = appendString(dst, f.View)
	dst = appendString(dst, f.State)
	dst = appendBool(dst, f.Mature)
	dst = binary.BigEndian.AppendUint64(dst, f.Generation)
	dst = appendStringList(dst, f.Members)
	dst = appendStringList(dst, f.Owned)
	peers := f.Peers
	if len(peers) > maxFrameList {
		peers = peers[:maxFrameList]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(peers)))
	for i := range peers {
		p := &peers[i]
		dst = appendString(dst, p.Peer)
		dst = binary.BigEndian.AppendUint32(dst, p.PhiMilli)
		dst = binary.BigEndian.AppendUint64(dst, p.LastHeardNS)
		dst = binary.BigEndian.AppendUint32(dst, p.Samples)
		dst = appendBool(dst, p.Suspected)
	}
	dst = binary.BigEndian.AppendUint64(dst, f.Installs)
	dst = binary.BigEndian.AppendUint64(dst, f.Reconfigs)
	dst = binary.BigEndian.AppendUint64(dst, f.Delivered)
	dst = binary.BigEndian.AppendUint64(dst, f.FramesPublished)
	dst = binary.BigEndian.AppendUint64(dst, f.FramesDropped)
	return dst
}

func appendString(dst []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendStringList(dst []byte, ss []string) []byte {
	if len(ss) > maxFrameList {
		ss = ss[:maxFrameList]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// isFrame reports whether data starts with the telemetry frame magic.
func isFrame(data []byte) bool {
	return len(data) >= 2 && data[0] == frameMagic0 && data[1] == frameMagic1
}

var errNotFrame = errors.New("health: not a telemetry frame")

// decodeFrame parses one encoded frame. All strings are copied out of
// data; hostile length fields fail before any large allocation.
func decodeFrame(data []byte) (Frame, error) {
	var f Frame
	if len(data) < 3 || !isFrame(data) {
		return f, errNotFrame
	}
	if data[2] != frameVersion {
		return f, fmt.Errorf("health: unsupported frame version %d", data[2])
	}
	r := wire.NewReader(data[3:])
	f.Node = r.String()
	f.Seq = r.U64()
	f.HLC.Wall = int64(r.U64())
	f.HLC.Logical = r.U32()
	f.SkewNS = int64(r.U64())
	f.View = r.String()
	f.State = r.String()
	f.Mature = r.Bool()
	f.Generation = r.U64()
	var err error
	if f.Members, err = readStringList(r); err != nil {
		return f, err
	}
	if f.Owned, err = readStringList(r); err != nil {
		return f, err
	}
	n := int(r.U16())
	if n > maxFrameList {
		return f, fmt.Errorf("health: frame peer count %d exceeds limit", n)
	}
	if n > 0 && r.Err() == nil {
		f.Peers = make([]PeerStatus, 0, n)
		for i := 0; i < n; i++ {
			var p PeerStatus
			p.Peer = r.String()
			p.PhiMilli = r.U32()
			p.LastHeardNS = r.U64()
			p.Samples = r.U32()
			p.Suspected = r.Bool()
			if r.Err() != nil {
				break
			}
			f.Peers = append(f.Peers, p)
		}
	}
	f.Installs = r.U64()
	f.Reconfigs = r.U64()
	f.Delivered = r.U64()
	f.FramesPublished = r.U64()
	f.FramesDropped = r.U64()
	if err := r.Done(); err != nil {
		return Frame{}, err
	}
	return f, nil
}

func readStringList(r *wire.Reader) ([]string, error) {
	n := int(r.U16())
	if n > maxFrameList {
		return nil, fmt.Errorf("health: frame list count %d exceeds limit", n)
	}
	if n == 0 || r.Err() != nil {
		return nil, nil
	}
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s := r.String()
		if r.Err() != nil {
			break
		}
		out = append(out, s)
	}
	return out, nil
}

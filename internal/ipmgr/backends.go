package ipmgr

import (
	"fmt"
	"net/netip"
	"os/exec"
	"strings"

	"wackamole/internal/netsim"
)

// NICBackend acquires and releases addresses on a simulated interface.
type NICBackend struct {
	NIC *netsim.NIC
}

// Acquire implements Backend.
func (b *NICBackend) Acquire(a netip.Addr) error { return b.NIC.AddAddr(a) }

// Release implements Backend.
func (b *NICBackend) Release(a netip.Addr) error { return b.NIC.RemoveAddr(a) }

var _ Backend = (*NICBackend)(nil)

// HostBackend acquires addresses on whichever simulated interface's subnet
// contains them. The virtual-router application (§5.2 of the paper) needs
// this: one indivisible group spans addresses on several networks.
type HostBackend struct {
	Host *netsim.Host
}

func (b *HostBackend) nicFor(a netip.Addr) (*netsim.NIC, error) {
	for _, nic := range b.Host.NICs() {
		if nic.Prefix().Contains(a) {
			return nic, nil
		}
	}
	return nil, fmt.Errorf("ipmgr: host %s has no interface on %v's subnet", b.Host.Name(), a)
}

// Acquire implements Backend.
func (b *HostBackend) Acquire(a netip.Addr) error {
	nic, err := b.nicFor(a)
	if err != nil {
		return err
	}
	return nic.AddAddr(a)
}

// Release implements Backend.
func (b *HostBackend) Release(a netip.Addr) error {
	nic, err := b.nicFor(a)
	if err != nil {
		return err
	}
	return nic.RemoveAddr(a)
}

var _ Backend = (*HostBackend)(nil)

// ExecBackend manipulates real interfaces by shelling out to iproute2, the
// moral equivalent of the paper's per-OS ifconfig code. With DryRun set it
// runs nothing, which is the default posture of cmd/wackamole so that
// experimenting cannot damage a machine's networking.
type ExecBackend struct {
	// Device is the interface to alias, e.g. "eth0".
	Device string
	// PrefixBits is the netmask applied to acquired addresses (default 32).
	PrefixBits int
	// DryRun suppresses execution.
	DryRun bool
}

func (b *ExecBackend) run(args ...string) error {
	if b.DryRun {
		return nil
	}
	out, err := exec.Command(args[0], args[1:]...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("ipmgr: %q: %v (%s)", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return nil
}

func (b *ExecBackend) bits() int {
	if b.PrefixBits <= 0 || b.PrefixBits > 32 {
		return 32
	}
	return b.PrefixBits
}

// Acquire implements Backend.
func (b *ExecBackend) Acquire(a netip.Addr) error {
	return b.run("ip", "addr", "add", fmt.Sprintf("%s/%d", a, b.bits()), "dev", b.Device)
}

// Release implements Backend.
func (b *ExecBackend) Release(a netip.Addr) error {
	return b.run("ip", "addr", "del", fmt.Sprintf("%s/%d", a, b.bits()), "dev", b.Device)
}

var _ Backend = (*ExecBackend)(nil)

// FakeBackend records operations and can inject failures; it backs the unit
// tests of everything above ipmgr.
type FakeBackend struct {
	// FailAcquire and FailRelease, when set, are consulted per address.
	FailAcquire func(a netip.Addr) error
	FailRelease func(a netip.Addr) error

	Ops []string
}

// Acquire implements Backend.
func (b *FakeBackend) Acquire(a netip.Addr) error {
	if b.FailAcquire != nil {
		if err := b.FailAcquire(a); err != nil {
			return err
		}
	}
	b.Ops = append(b.Ops, "acquire "+a.String())
	return nil
}

// Release implements Backend.
func (b *FakeBackend) Release(a netip.Addr) error {
	if b.FailRelease != nil {
		if err := b.FailRelease(a); err != nil {
			return err
		}
	}
	b.Ops = append(b.Ops, "release "+a.String())
	return nil
}

var _ Backend = (*FakeBackend)(nil)

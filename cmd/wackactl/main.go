// Command wackactl speaks the administrative control channel of a running
// wackamole daemon (§4.2 of the paper):
//
//	wackactl -control 127.0.0.1:4804 status
//	wackactl -control 127.0.0.1:4804 balance
//	wackactl -control 127.0.0.1:4804 drain
//	wackactl -control 127.0.0.1:4804 join
//	wackactl -control 127.0.0.1:4804 dump
//
// drain departs the node gracefully (the remaining members reallocate its
// addresses) while the daemon keeps running; join
// re-admits a drained node — it restarts the §3.4 maturity bootstrap and the
// configured placement policy decides how much load moves back. Together
// they are the rolling-restart primitive: drain, do maintenance, join.
//
// dump spills a flight-recorder bundle (requires flight_dir in the daemon's
// configuration) and prints the bundle directory; it is served off the
// protocol loop, so it works even when the daemon is wedged. Merge bundles
// from several nodes with cmd/wacktrace.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wackamole/internal/ctl"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("wackactl", flag.ContinueOnError)
	control := fs.String("control", "127.0.0.1:4804", "daemon control address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cmd := ctl.CmdStatus
	if fs.NArg() > 0 {
		cmd = fs.Arg(0)
	}
	if fs.NArg() > 1 {
		fmt.Fprintln(errOut, "wackactl: one command at a time")
		return 2
	}
	reply, err := ctl.Send(*control, cmd)
	if err != nil {
		fmt.Fprintf(errOut, "wackactl: %v\n", err)
		return 1
	}
	fmt.Fprint(out, reply)
	return 0
}

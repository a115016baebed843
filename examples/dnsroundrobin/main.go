// Dnsroundrobin: the paper's §7 observation that "many services need high
// availability and only remedial load-balancing techniques such as multiple
// DNS A records". DNS round-robin spreads load across several virtual
// addresses but does nothing when a server dies — clients keep being handed
// the dead address until its record is removed (hours, with caching).
// Running an IP fail-over protocol "directly on the machines providing the
// service" keeps every A record alive.
//
// The example serves a site on four virtual addresses (the A records) from
// four servers, drives a client that round-robins across the records with a
// short retry, and fails one server. With Wackamole, every record keeps
// answering after one fail-over interval; the retry masks the brief gap.
//
//	go run ./examples/dnsroundrobin
package main

import (
	"fmt"
	"net/netip"
	"os"
	"time"

	"wackamole"
	"wackamole/internal/gcs"
	"wackamole/internal/netsim"
	"wackamole/internal/probe"
)

const servicePort = 8080

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "dnsroundrobin: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	cluster, err := wackamole.NewCluster(wackamole.ClusterOptions{
		Seed:       7,
		Servers:    4,
		VIPs:       4, // the four DNS A records
		GCS:        gcs.TunedConfig(),
		WithRouter: true,
	})
	if err != nil {
		return err
	}
	for _, srv := range cluster.Servers {
		if err := probe.NewServer(srv.Host, servicePort); err != nil {
			return err
		}
	}

	// The "DNS" zone: four A records for www.example.test.
	records := cluster.VIPs()

	client := cluster.Net.NewHost("browser")
	cnic := client.AttachNIC(cluster.External, "eth0",
		netip.MustParsePrefix("192.168.1.50/24"))
	client.SetDefaultGateway(cnic, wackamole.RouterOutsideAddr)
	rr := newRoundRobinClient(client, records, servicePort)

	cluster.Settle()
	fmt.Println("== www.example.test: 4 A records, 4 servers ==")
	runRequests(cluster, rr, 200)
	fmt.Printf("warm-up: %d/%d requests answered (retries: %d)\n\n", rr.ok, rr.total, rr.retries)

	victim, _ := cluster.Owner(records[0])
	fmt.Printf("disconnecting %s (serves %v)...\n", cluster.Servers[victim].Host.Name(), records[0])
	cluster.FailServer(victim)

	rr.reset()
	runRequests(cluster, rr, 600)
	fmt.Printf("during/after fail-over: %d/%d answered, %d needed a retry, %d failed outright\n",
		rr.ok, rr.total, rr.retries, rr.failed)

	rr.reset()
	runRequests(cluster, rr, 200)
	fmt.Printf("steady state after fail-over: %d/%d answered (retries: %d)\n", rr.ok, rr.total, rr.retries)
	fmt.Println("\nevery A record kept answering: the dead server's address moved, the zone file never changed.")
	return nil
}

func runRequests(cluster *wackamole.Cluster, rr *rrClient, n int) {
	for i := 0; i < n; i++ {
		rr.request(cluster)
		cluster.RunFor(20 * time.Millisecond)
	}
}

// rrClient round-robins requests across the A records, retrying once on the
// next record after a short timeout — what a browser effectively does with
// multiple A records.
type rrClient struct {
	host    *netsim.Host
	records []netip.Addr
	next    int

	pending  bool
	answered bool

	total, ok, retries, failed int
}

func newRoundRobinClient(host *netsim.Host, records []netip.Addr, port uint16) *rrClient {
	rr := &rrClient{host: host, records: records}
	if _, err := host.BindUDP(netip.Addr{}, 9001, func(_, _ netip.AddrPort, _ []byte) {
		rr.answered = true
	}); err != nil {
		panic(err) // example setup; cannot fail twice on one port
	}
	return rr
}

func (rr *rrClient) reset() { rr.total, rr.ok, rr.retries, rr.failed = 0, 0, 0, 0 }

// request issues one HTTP-like request with a single retry on the next
// record. The simulation advances inside to model the client's timeout.
func (rr *rrClient) request(cluster *wackamole.Cluster) {
	rr.total++
	for attempt := 0; attempt < 2; attempt++ {
		target := rr.records[rr.next%len(rr.records)]
		rr.next++
		rr.answered = false
		src := netip.AddrPortFrom(netip.Addr{}, 9001)
		if err := rr.host.SendUDP(src, netip.AddrPortFrom(target, servicePort), []byte("GET /")); err != nil {
			continue
		}
		cluster.RunFor(100 * time.Millisecond) // client timeout
		if rr.answered {
			rr.ok++
			if attempt > 0 {
				rr.retries++
			}
			return
		}
	}
	rr.failed++
}

package netsim

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func newRemotePair(t *testing.T) (*Fleet, *RemoteDevice, *RemoteDevice) {
	t.Helper()
	f := NewFleet()
	d1, _ := f.AddDevice("psw1.pop1", Vendor1, "psw", "pop1")
	d1.SetTrafficLoad(0.25)
	f.AddDevice("pr1.pop1", Vendor2, "pr", "pop1")
	srv, err := f.ServeMgmt("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	r1, err := DialDevice(srv.Addr(), "psw1.pop1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r1.Close() })
	r2, err := DialDevice(srv.Addr(), "pr1.pop1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	return f, r1, r2
}

func TestRemoteDeviceIdentity(t *testing.T) {
	_, r1, r2 := newRemotePair(t)
	if r1.Name() != "psw1.pop1" || r1.Vendor() != Vendor1 || r1.Role() != "psw" || r1.Site() != "pop1" {
		t.Errorf("identity = %s/%s/%s/%s", r1.Name(), r1.Vendor(), r1.Role(), r1.Site())
	}
	if r2.Vendor() != Vendor2 || r2.Role() != "pr" {
		t.Errorf("r2 identity = %s/%s", r2.Vendor(), r2.Role())
	}
	if got := r1.TrafficLoad(); got != 0.25 {
		t.Errorf("traffic = %v", got)
	}
	if !r1.Reachable() {
		t.Error("device should be reachable")
	}
	if r1.ConfirmPending() {
		t.Error("ConfirmPending over CLI is always false")
	}
}

func TestRemoteDeviceConfigLifecycle(t *testing.T) {
	f, r1, r2 := newRemotePair(t)
	if err := r1.LoadConfig("hostname psw1.pop1\ninterface et1/1\n"); err != nil {
		t.Fatal(err)
	}
	if err := r1.Commit(); err != nil {
		t.Fatal(err)
	}
	cfg, err := r1.RunningConfig()
	if err != nil || !strings.Contains(cfg, "interface et1/1") {
		t.Errorf("running config = %q, %v", cfg, err)
	}
	// Vendor1 native dryrun is unsupported; the sentinel survives the wire.
	if err := r1.LoadConfig("hostname psw1.pop1\ninterface et2/1\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.DryrunDiff(); !errors.Is(err, ErrNotSupported) {
		t.Errorf("want ErrNotSupported over wire, got %v", err)
	}
	if err := r1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := r1.Rollback(); err != nil {
		t.Fatal(err)
	}
	cfg, _ = r1.RunningConfig()
	if !strings.Contains(cfg, "et1/1") {
		t.Errorf("rollback over wire failed: %q", cfg)
	}
	if err := r1.EraseConfig(); err != nil {
		t.Fatal(err)
	}
	cfg, _ = r1.RunningConfig()
	if cfg != "" {
		t.Errorf("erase over wire failed: %q", cfg)
	}
	// Vendor2 commit-confirmed + confirm over the wire.
	if err := r2.LoadConfig("ae0 {\n}\n"); err != nil {
		t.Fatal(err)
	}
	if err := r2.CommitConfirmed(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := r2.Confirm(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	cfg, _ = r2.RunningConfig()
	if !strings.Contains(cfg, "ae0") {
		t.Errorf("confirmed config lost: %q", cfg)
	}
	_ = f
}

func TestRemoteDeviceOperationalState(t *testing.T) {
	f, r1, _ := newRemotePair(t)
	d1, _ := f.Device("psw1.pop1")
	d2, _ := f.Device("pr1.pop1")
	d1.LoadConfig("interface et1/1\nrouter bgp 65001\n neighbor 10.0.0.1 remote-as 65000\n")
	d1.Commit()
	d2.LoadConfig("et-1/0/1 {\n}\n")
	d2.Commit()
	f.Wire("psw1.pop1", "et1/1", "pr1.pop1", "et-1/0/1")

	ifaces, err := r1.ShowInterfaces()
	if err != nil || len(ifaces) != 1 || ifaces[0].OperStatus != "up" {
		t.Errorf("interfaces over wire = %+v, %v", ifaces, err)
	}
	lldp, err := r1.ShowLLDPNeighbors()
	if err != nil || len(lldp) != 1 || lldp[0].NeighborDevice != "pr1.pop1" {
		t.Errorf("lldp over wire = %+v, %v", lldp, err)
	}
	bgp, err := r1.ShowBGPSummary()
	if err != nil || len(bgp) != 1 {
		t.Errorf("bgp over wire = %+v, %v", bgp, err)
	}
	v, err := r1.ShowVersion()
	if err != nil || v.Name != "psw1.pop1" || v.Vendor != "vendor1" {
		t.Errorf("version over wire = %+v, %v", v, err)
	}
	counters, err := r1.Counters()
	if err != nil || counters["cpu_util"] <= 0 {
		t.Errorf("counters over wire = %v, %v", counters, err)
	}
}

func TestRemoteDeviceDownMapsUnreachable(t *testing.T) {
	f, r1, _ := newRemotePair(t)
	d1, _ := f.Device("psw1.pop1")
	d1.SetDown(true)
	// device-info is out-of-band: still answers, reporting unreachable.
	if r1.Reachable() {
		t.Error("down device reported reachable")
	}
	_, err := r1.RunningConfig()
	if !errors.Is(err, ErrUnreachable) {
		t.Errorf("want ErrUnreachable over wire, got %v", err)
	}
	d1.SetDown(false)
	if !r1.Reachable() {
		t.Error("recovered device reported unreachable")
	}
}

// TestMgmtClientRejectsOversizedReply answers one command with a forged
// length header and no body. A length past the 16 MiB body cap must be
// refused as garbled before the client allocates or waits for it; a
// length within the cap still reads its body. A server asked to send a
// body past the cap answers an error the client reports as such.
func TestMgmtClientRejectsOversizedReply(t *testing.T) {
	cases := []struct {
		name    string
		reply   func(io.Writer)
		garbled bool
		err     string
		bodyLen int
	}{
		{name: "cap plus one", reply: forged(fmt.Sprintf("OK %d\n", maxMgmtBody+1)), garbled: true},
		{name: "terabyte", reply: forged("OK 1099511627776\n"), garbled: true},
		{name: "max int", reply: forged("OK 9223372036854775807\n"), garbled: true},
		{name: "past int64", reply: forged("OK 99999999999999999999\n"), garbled: true},
		{name: "negative", reply: forged("OK -1\n"), garbled: true},
		{name: "within cap", reply: forged("OK 5\nhello"), bodyLen: 5},
		{
			name:    "server body at cap",
			reply:   func(w io.Writer) { writeOK(w, strings.Repeat("x", maxMgmtBody)) },
			bodyLen: maxMgmtBody,
		},
		{
			name:  "server body past cap",
			reply: func(w io.Writer) { writeOK(w, strings.Repeat("x", maxMgmtBody+1)) },
			err:   "netsim: reply too large",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer client.Close()
			go func() {
				defer server.Close()
				if _, err := bufio.NewReader(server).ReadString('\n'); err != nil {
					return
				}
				tc.reply(server)
			}()
			c := &MgmtClient{conn: client, r: bufio.NewReader(client)}
			c.SetOpTimeout(5 * time.Second)
			body, err := c.Do("show running-config")
			switch {
			case tc.garbled:
				if !errors.Is(err, ErrGarbledReply) {
					t.Fatalf("err = %v, want ErrGarbledReply", err)
				}
			case tc.err != "":
				if err == nil || errors.Is(err, ErrGarbledReply) || err.Error() != tc.err {
					t.Fatalf("err = %v, want %q", err, tc.err)
				}
			case err != nil:
				t.Fatalf("err = %v", err)
			case len(body) != tc.bodyLen:
				t.Fatalf("body of %d bytes, want %d", len(body), tc.bodyLen)
			}
		})
	}
}

// forged replies with raw bytes, bypassing writeOK's framing.
func forged(raw string) func(io.Writer) {
	return func(w io.Writer) { io.WriteString(w, raw) }
}

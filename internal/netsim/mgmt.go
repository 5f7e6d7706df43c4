package netsim

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The management CLI: every device can expose a TCP endpoint speaking a
// line-oriented protocol, the transport behind Robotron's CLI deployment
// and the CLI monitoring engine (§5.3, §5.4.2, Table 2).
//
// Requests are single lines; "load-config <n>" is followed by n raw bytes.
// Responses are either "OK <n>\n" followed by n bytes of body, or
// "ERR <message>\n". Structured show commands return JSON bodies.

// maxMgmtBody caps a message body in either direction: a config pushed
// with load-config, and a reply the server sends and the client reads.
// A length header past it is corrupt or hostile, and is refused before
// anything is allocated.
const maxMgmtBody = 16 << 20

// MgmtServer serves the management CLI for one fleet.
type MgmtServer struct {
	fleet *Fleet
	ln    net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  bool
	wg    sync.WaitGroup
}

// ServeMgmt starts a management endpoint for the whole fleet on addr
// (e.g. "127.0.0.1:0"); clients select a device with the "device <name>"
// command. Returns the server; Addr reports the bound address.
func (f *Fleet) ServeMgmt(addr string) (*MgmtServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &MgmtServer{fleet: f, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *MgmtServer) Addr() string { return s.ln.Addr().String() }

// Close stops the server and its sessions.
func (s *MgmtServer) Close() {
	s.mu.Lock()
	s.done = true
	s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *MgmtServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.done {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.session(conn)
	}
}

func (s *MgmtServer) session(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	var dev *Device
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line == "quit" {
			writeOK(conn, "bye\n")
			return
		}
		if name, ok := strings.CutPrefix(line, "device "); ok {
			d, found := s.fleet.Device(strings.TrimSpace(name))
			if !found {
				writeErr(conn, fmt.Sprintf("unknown device %q", name))
				continue
			}
			dev = d
			writeOK(conn, "selected "+dev.Name()+"\n")
			continue
		}
		if dev == nil {
			writeErr(conn, "no device selected (use: device <name>)")
			continue
		}
		if s.dispatch(conn, r, dev, line) {
			return // injected connection drop: session is gone
		}
	}
}

// dispatch executes one command; it returns true when an injected fault
// dropped the connection (the session must end without a reply, exactly
// what a mid-commit TCP RST looks like to the client).
func (s *MgmtServer) dispatch(w net.Conn, r *bufio.Reader, dev *Device, line string) (dropped bool) {
	// replyErr renders a device error onto the wire. Injected
	// connection drops close the socket with no reply at all; injected
	// garbles corrupt the response framing so the client reads junk.
	replyErr := func(err error) {
		switch {
		case errors.Is(err, ErrConnDropped):
			w.Close()
			dropped = true
		case errors.Is(err, ErrGarbledReply):
			fmt.Fprintf(w, "\x15GARBLED\x15\n")
		default:
			writeErr(w, err.Error())
		}
	}
	reply := func(body string, err error) {
		if err != nil {
			replyErr(err)
			return
		}
		writeOK(w, body)
	}
	replyJSON := func(v any, err error) {
		if err != nil {
			replyErr(err)
			return
		}
		b, merr := json.Marshal(v)
		if merr != nil {
			writeErr(w, merr.Error())
			return
		}
		writeOK(w, string(b)+"\n")
	}
	switch {
	case line == "show device-info":
		// Served even when the device is down: the management plane is
		// out-of-band, and health checks need the reachability bit.
		replyJSON(map[string]any{
			"Name": dev.Name(), "Vendor": string(dev.Vendor()),
			"Role": dev.Role(), "Site": dev.Site(),
			"Traffic": dev.TrafficLoad(), "Reachable": dev.Reachable(),
		}, nil)
	case line == "show running-config":
		cfg, err := dev.RunningConfig()
		reply(cfg, err)
	case line == "show interfaces":
		v, err := dev.ShowInterfaces()
		replyJSON(v, err)
	case line == "show lldp neighbors":
		v, err := dev.ShowLLDPNeighbors()
		replyJSON(v, err)
	case line == "show bgp summary":
		v, err := dev.ShowBGPSummary()
		replyJSON(v, err)
	case line == "show version":
		v, err := dev.ShowVersion()
		replyJSON(v, err)
	case line == "show counters":
		v, err := dev.Counters()
		replyJSON(v, err)
	case strings.HasPrefix(line, "load-config "):
		n, err := strconv.Atoi(strings.TrimPrefix(line, "load-config "))
		if err != nil || n < 0 || n > maxMgmtBody {
			writeErr(w, "bad length")
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			writeErr(w, "short config body: "+err.Error())
			return
		}
		reply("loaded\n", dev.LoadConfig(string(buf)))
	case line == "compare":
		diff, err := dev.DryrunDiff()
		reply(diff, err)
	case line == "discard":
		reply("discarded\n", dev.DiscardCandidate())
	case line == "commit":
		reply("committed\n", dev.Commit())
	case strings.HasPrefix(line, "commit-confirmed-ms "):
		ms, err := strconv.Atoi(strings.TrimPrefix(line, "commit-confirmed-ms "))
		if err != nil || ms <= 0 {
			writeErr(w, "bad grace period")
			return
		}
		reply("committed (pending confirmation)\n", dev.CommitConfirmed(time.Duration(ms)*time.Millisecond))
	case strings.HasPrefix(line, "commit-confirmed "):
		secs, err := strconv.Atoi(strings.TrimPrefix(line, "commit-confirmed "))
		if err != nil || secs <= 0 {
			writeErr(w, "bad grace period")
			return
		}
		reply("committed (pending confirmation)\n", dev.CommitConfirmed(time.Duration(secs)*time.Second))
	case line == "confirm":
		reply("confirmed\n", dev.Confirm())
	case line == "rollback":
		reply("rolled back\n", dev.Rollback())
	case line == "erase":
		reply("erased\n", dev.EraseConfig())
	default:
		writeErr(w, fmt.Sprintf("unknown command %q", line))
	}
	return dropped
}

// writeOK frames a reply body; one past maxMgmtBody, which the client
// would refuse as garbled, is answered with an error instead.
func writeOK(w io.Writer, body string) {
	if len(body) > maxMgmtBody {
		writeErr(w, "reply too large")
		return
	}
	fmt.Fprintf(w, "OK %d\n%s", len(body), body)
}

func writeErr(w io.Writer, msg string) {
	msg = strings.ReplaceAll(msg, "\n", " ")
	fmt.Fprintf(w, "ERR %s\n", msg)
}

// ErrTimeout marks a management operation that exceeded the client's
// per-operation deadline. Like a connection drop, a timed-out commit is
// ambiguous: the device may or may not have applied it.
var ErrTimeout = fmt.Errorf("netsim: management operation timed out")

// DefaultOpTimeout bounds each management operation: a stalled server
// must surface as a classifiable timeout, never hang the caller.
const DefaultOpTimeout = 5 * time.Second

// MgmtClient is a client-side management session over TCP.
type MgmtClient struct {
	mu        sync.Mutex
	conn      net.Conn
	r         *bufio.Reader
	addr      string // non-empty: the session can redial after a drop
	device    string
	broken    bool          // stream desynced (drop/timeout); redial before reuse
	opTimeout time.Duration // per-operation deadline; 0 disables
}

// DialMgmt connects to a fleet management endpoint and selects a device.
func DialMgmt(addr, device string) (*MgmtClient, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	c := &MgmtClient{
		conn: conn, r: bufio.NewReader(conn),
		addr: addr, device: device, opTimeout: DefaultOpTimeout,
	}
	if _, err := c.Do("device " + device); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// SetOpTimeout changes the per-operation deadline; 0 disables it.
func (c *MgmtClient) SetOpTimeout(d time.Duration) {
	c.mu.Lock()
	c.opTimeout = d
	c.mu.Unlock()
}

// ensureLocked redials a broken session when the client knows its
// endpoint; after a drop or timeout the old stream cannot be trusted to
// be reply-aligned.
func (c *MgmtClient) ensureLocked() error {
	if !c.broken {
		return nil
	}
	if c.addr == "" {
		return fmt.Errorf("%w: session broken and not redialable", ErrConnDropped)
	}
	conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("%w: redial: %v", ErrConnDropped, err)
	}
	old := c.conn
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.broken = false
	if old != nil {
		old.Close()
	}
	if c.device != "" {
		if _, err := c.doLocked("device "+c.device, ""); err != nil {
			return err
		}
	}
	return nil
}

// Do sends one command line and returns the response body.
func (c *MgmtClient) Do(cmd string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return "", err
	}
	return c.doLocked(cmd, "")
}

// DoWithBody sends a command followed by a raw payload (load-config).
func (c *MgmtClient) DoWithBody(cmd, body string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureLocked(); err != nil {
		return "", err
	}
	return c.doLocked(cmd, body)
}

func (c *MgmtClient) doLocked(cmd, body string) (string, error) {
	if c.opTimeout > 0 {
		c.conn.SetDeadline(time.Now().Add(c.opTimeout))
		defer c.conn.SetDeadline(time.Time{})
	}
	if _, err := fmt.Fprintf(c.conn, "%s\n%s", cmd, body); err != nil {
		return "", c.opErr(err)
	}
	out, err := c.readReply()
	return out, c.opErr(err)
}

// opErr classifies a transport error and marks the session broken when
// the byte stream can no longer be trusted.
func (c *MgmtClient) opErr(err error) error {
	if err == nil {
		return nil
	}
	mapped := wrapNetErr(err)
	if errors.Is(mapped, ErrConnDropped) || errors.Is(mapped, ErrTimeout) ||
		errors.Is(mapped, ErrGarbledReply) {
		c.broken = true
	}
	return mapped
}

// wrapNetErr restores sentinel identity for raw transport errors.
func wrapNetErr(err error) error {
	if err == nil {
		return nil
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return fmt.Errorf("%w: %v", ErrConnDropped, err)
	}
	return err
}

func (c *MgmtClient) readReply() (string, error) {
	header, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	header = strings.TrimRight(header, "\n")
	if msg, ok := strings.CutPrefix(header, "ERR "); ok {
		return "", fmt.Errorf("netsim: %s", msg)
	}
	lenStr, ok := strings.CutPrefix(header, "OK ")
	if !ok {
		return "", fmt.Errorf("%w: malformed reply %q", ErrGarbledReply, header)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > maxMgmtBody {
		return "", fmt.Errorf("%w: malformed reply length %q", ErrGarbledReply, lenStr)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c.r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// LoadConfig stages a candidate config over the session.
func (c *MgmtClient) LoadConfig(cfg string) error {
	_, err := c.DoWithBody(fmt.Sprintf("load-config %d", len(cfg)), cfg)
	return err
}

// RunningConfig fetches the running config.
func (c *MgmtClient) RunningConfig() (string, error) {
	return c.Do("show running-config")
}

// Commit activates the candidate config.
func (c *MgmtClient) Commit() error {
	_, err := c.Do("commit")
	return err
}

// ShowInterfaces fetches interface status.
func (c *MgmtClient) ShowInterfaces() ([]IfaceStatus, error) {
	body, err := c.Do("show interfaces")
	if err != nil {
		return nil, err
	}
	var out []IfaceStatus
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close ends the session.
func (c *MgmtClient) Close() error { return c.conn.Close() }

package peer

import (
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"netsession/internal/content"
	"netsession/internal/edge"
	"netsession/internal/protocol"
)

// newTestUploadManager builds an upload manager detached from a live client.
func newTestUploadManager(maxConns, perObjectCap int, rateBps int64) *uploadManager {
	u := newUploadManager(&Client{})
	cfg := edge.DefaultClientConfig()
	cfg.MaxUploadConns = maxConns
	cfg.PerObjectUploadCap = perObjectCap
	cfg.UploadRateBps = rateBps
	u.applyConfig(cfg)
	return u
}

func TestUploadManagerGlobalLimit(t *testing.T) {
	u := newTestUploadManager(2, 0, 0)
	oid := content.NewObjectID(1, "o", 1)
	a := &swarmConn{oid: oid}
	b := &swarmConn{oid: oid}
	c := &swarmConn{oid: oid}
	if !u.tryAcquire(a) || !u.tryAcquire(b) {
		t.Fatal("slots under the limit refused")
	}
	if u.tryAcquire(c) {
		t.Fatal("third slot granted over MaxUploadConns=2")
	}
	if u.ActiveUploads() != 2 {
		t.Fatalf("ActiveUploads=%d", u.ActiveUploads())
	}
	u.release(a)
	if !u.tryAcquire(c) {
		t.Fatal("slot not granted after release")
	}
}

func TestUploadManagerPerObjectCap(t *testing.T) {
	u := newTestUploadManager(0, 2, 0)
	oid := content.NewObjectID(1, "o", 1)
	other := content.NewObjectID(1, "p", 1)
	if !u.tryAcquire(&swarmConn{oid: oid}) || !u.tryAcquire(&swarmConn{oid: oid}) {
		t.Fatal("sessions under the cap refused")
	}
	// The cap counts sessions ever granted for the object (§3.9: "peers
	// upload each object at most a limited number of times"), so a third
	// session is refused even though earlier ones may have ended.
	if u.tryAcquire(&swarmConn{oid: oid}) {
		t.Fatal("per-object cap not enforced")
	}
	if !u.tryAcquire(&swarmConn{oid: other}) {
		t.Fatal("cap leaked across objects")
	}
}

func TestUploadManagerThrottle(t *testing.T) {
	// 80 kbit/s: sending 2x 10 KB must take ≈1s for the second send.
	u := newTestUploadManager(0, 0, 80_000)
	start := time.Now()
	u.throttle(10_000) // first send charges the bucket but does not wait
	u.throttle(10_000) // second send waits for the first's drain time
	elapsed := time.Since(start)
	if elapsed < 700*time.Millisecond {
		t.Fatalf("throttle too permissive: %v", elapsed)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("throttle too strict: %v", elapsed)
	}
}

func TestUploadManagerThrottleUnlimited(t *testing.T) {
	u := newTestUploadManager(0, 0, 0)
	start := time.Now()
	for i := 0; i < 100; i++ {
		u.throttle(1 << 20)
	}
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("unlimited rate should never sleep")
	}
}

func TestUploadManagerCountBytes(t *testing.T) {
	u := newTestUploadManager(0, 0, 0)
	u.countBytes(100)
	u.countBytes(23)
	if got := u.UploadedBytes(); got != 123 {
		t.Fatalf("UploadedBytes=%d", got)
	}
}

// stalledListener returns a loopback listener whose accept queue is full, so
// a further connect hangs in SYN retransmission instead of completing, plus
// the filler connections that hold the queue. Accepting a filler frees a
// slot and lets the stalled connect through on its next retransmit.
func stalledListener(t *testing.T) (net.Listener, map[string]bool) {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		syscall.Close(fd)
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		syscall.Close(fd)
		t.Fatal(err)
	}
	f := os.NewFile(uintptr(fd), "stalled-listener")
	ln, err := net.FileListener(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	fillers := map[string]bool{}
	for i := 0; i < 8; i++ {
		conn, err := net.DialTimeout("tcp", ln.Addr().String(), 300*time.Millisecond)
		if err != nil {
			return ln, fillers // the queue is full: this connect could not complete
		}
		fillers[conn.LocalAddr().String()] = true
		t.Cleanup(func() { conn.Close() })
	}
	t.Fatal("accept queue never filled")
	return nil, nil
}

// TestCloseDuringDialBack closes the client while a dial-back is still
// connecting. The swarm connection already holds an upload slot but has no
// socket yet; Close must not touch the missing socket, and the socket the
// dial delivers afterwards must be hung up on without a handshake.
func TestCloseDuringDialBack(t *testing.T) {
	obj := e2eObject(t, 64<<10, true)
	d := newDeployment(t, 1, obj)
	s := d.seed("US", obj)
	ln, fillers := stalledListener(t)

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.uploads.dialBack(obj.ID, protocol.PeerInfo{Addr: ln.Addr().String(), NAT: protocol.NATNone})
	}()
	waitUntil(t, 5*time.Second, func() bool { return s.uploads.ActiveUploads() == 1 },
		"dial-back never took an upload slot")
	s.Close()
	if n := s.uploads.ActiveUploads(); n != 0 {
		t.Fatalf("%d upload slots held after Close", n)
	}

	// Drain the accept queue so the stalled connect completes, and record
	// what the dial-back sends before it hangs up.
	received := make(chan int64, 1)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if fillers[conn.RemoteAddr().String()] {
				conn.Close()
				continue
			}
			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			n, _ := io.Copy(io.Discard, conn)
			conn.Close()
			received <- n
			return
		}
	}()
	select {
	case n := <-received:
		if n != 0 {
			t.Fatalf("closed client sent %d bytes on the dial-back connection", n)
		}
	case <-time.After(8 * time.Second):
		t.Fatal("dial-back connection was never hung up")
	}
	<-done
	if n := s.uploads.ActiveUploads(); n != 0 {
		t.Fatalf("%d upload slots held after dial-back returned", n)
	}
}

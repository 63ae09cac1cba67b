package httpx

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"testing"
	"time"
)

func TestNewServerTimeouts(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != ReadHeaderTimeout || srv.IdleTimeout != IdleTimeout {
		t.Fatalf("timeouts = (%v, %v), want (%v, %v)",
			srv.ReadHeaderTimeout, srv.IdleTimeout, ReadHeaderTimeout, IdleTimeout)
	}
	// Bodies and handlers stay unbounded: a large /batch or a slow query
	// must not be cut off.
	if srv.ReadTimeout != 0 || srv.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v, WriteTimeout %v, want none", srv.ReadTimeout, srv.WriteTimeout)
	}
}

// TestNewServerClosesStalledHeader sends half a request header and then
// stalls: the server must close the connection once the header timeout
// (shortened here) passes.
func TestNewServerClosesStalledHeader(t *testing.T) {
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /query HTTP/1.1\r\nHost: x\r\nContent-"); err != nil {
		t.Fatal(err)
	}
	// Well past the header timeout, far short of the read deadline.
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = io.ReadAll(conn)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection still open after %v", time.Since(start))
	}
	// ReadAll returns nil at EOF; a reset is a close too.
}

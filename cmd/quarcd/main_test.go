package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"testing"
	"time"
)

func TestHTTPServerTimeouts(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if srv.ReadHeaderTimeout != 10*time.Second || srv.IdleTimeout != 120*time.Second {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v; want 10s and 120s", srv.ReadHeaderTimeout, srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 || srv.ReadTimeout != 0 {
		t.Errorf("WriteTimeout %v, ReadTimeout %v; want 0: ?wait=1 and /events outlive any fixed bound",
			srv.WriteTimeout, srv.ReadTimeout)
	}
}

// A peer that sends half a request line and stalls must be hung up on, while
// a keep-alive client pacing requests 100 ms apart keeps its one connection.
// The server is the daemon's own, with both timeouts scaled down forty-fold
// so the stall resolves in a quarter of a second.
func TestStalledHeaderClosedKeepAliveKept(t *testing.T) {
	srv := newHTTPServer("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}))
	srv.ReadHeaderTimeout /= 40
	srv.IdleTimeout /= 40
	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	defer func() {
		srv.Close()
		<-served
	}()

	stalled, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := io.WriteString(stalled, "GET /heal"); err != nil {
		t.Fatal(err)
	}

	// Meanwhile the well-behaved client: five requests, 100 ms apart, all on
	// the connection the first one opened.
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < 5; i++ {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		reused := false
		req, err := http.NewRequest(http.MethodGet, "http://"+ln.Addr().String()+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("keep-alive request %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if i > 0 && !reused {
			t.Fatalf("keep-alive request %d opened a new connection: the server dropped an active client", i)
		}
	}

	// The stalled peer has by now outlived the header timeout: its read must
	// end with the server's hang-up, not with our own deadline.
	stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, stalled)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server kept a connection that never finished its request line")
	}
}

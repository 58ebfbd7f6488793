package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerLimits checks that the listener graphmatd builds bounds
// header reads, header size and idle keep-alive connections.
func TestHTTPServerLimits(t *testing.T) {
	h := http.NewServeMux()
	s := newHTTPServer("127.0.0.1:0", h)
	if s.Handler != h || s.Addr != "127.0.0.1:0" {
		t.Fatalf("server addr %q handler %v, want the given ones", s.Addr, s.Handler)
	}
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", s.IdleTimeout)
	}
	if s.MaxHeaderBytes <= 0 {
		t.Errorf("MaxHeaderBytes = %d, want > 0", s.MaxHeaderBytes)
	}
}

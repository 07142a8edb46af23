package service

// writeJSON must not hand a client a complete-looking 200 whose body
// silently died mid-encode: a failure after the status line aborts the
// connection so the client observes a broken transfer.

import (
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"testing"
)

// unencodable fails encoding only when marshaled, after the status line
// is committed.
type unencodable struct{ Ch chan int }

func TestEncodeFailureAbortsConnection(t *testing.T) {
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, unencodable{})
	}))
	// The abort surfaces server-side as a recovered panic; keep its
	// stack trace out of the test log.
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()

	resp, err := http.Get(ts.URL)
	if err != nil {
		return // connection died before the status line: aborted, good
	}
	body, rerr := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if rerr == nil {
		t.Fatalf("encode failure produced a clean %d response with body %q; want an aborted transfer",
			resp.StatusCode, body)
	}
}

// TestAcceptsGzip pins Accept-Encoding parsing: codings and the q
// parameter are case-insensitive, q=0 refuses, and a coding listed by
// name takes precedence over * (RFC 9110 §12.4.2, §12.5.3).
func TestAcceptsGzip(t *testing.T) {
	for _, c := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"identity", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, Gzip", true},
		{"gzip;q=0", false},
		{"gzip;Q=0", false},
		{"gzip; Q=0", false},
		{"gzip ; q=0.000", false},
		{"gzip;q=0.5", true},
		{"*", true},
		{"*;q=0", false},
		{"*;Q=0", false},
		{"*;q=0, gzip", true},
		{"*, gzip;q=0", false},
		{"gzip;q=0, *", false},
		{"identity, *;q=0.1", true},
	} {
		r := httptest.NewRequest(http.MethodGet, "/findings", nil)
		if c.header != "" {
			r.Header.Set("Accept-Encoding", c.header)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}

package transport

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"jumpstart/internal/jumpstart"
)

// maxManifestBytes bounds a manifest response body.
const maxManifestBytes = 8 << 20

// HTTPConn speaks the protocol to a real store server (Server.Handler)
// over HTTP — the production-shaped path cmd/jumpstartd uses for the
// two-process seeder→consumer handoff on localhost.
type HTTPConn struct {
	base string
	http *http.Client
}

// NewHTTPConn builds a connection to the store at baseURL (e.g.
// "http://127.0.0.1:8099"). rpcTimeout caps each request in wall
// seconds (<= 0 selects the client default).
func NewHTTPConn(baseURL string, rpcTimeout float64) *HTTPConn {
	if rpcTimeout <= 0 {
		rpcTimeout = DefaultClientConfig().RPCTimeout
	}
	return &HTTPConn{
		base: strings.TrimRight(baseURL, "/"),
		http: &http.Client{Timeout: time.Duration(rpcTimeout * float64(time.Second))},
	}
}

// get issues a GET and returns the body, mapping HTTP failures onto
// the protocol errors. net/http asks for gzip and inflates a
// Content-Encoding: gzip response itself, so the body read here is
// already decoded and maxBytes bounds the inflated size: a corrupt or
// malicious response is refused, never allowed to OOM a consumer (same
// rule as prof.Decode).
func (c *HTTPConn) get(url string, maxBytes int64) ([]byte, error) {
	resp, err := c.http.Get(url)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrRPC, err)
	}
	if int64(len(body)) > maxBytes {
		return nil, fmt.Errorf("%w: response exceeds %d bytes", ErrRPC, maxBytes)
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrNoPackage, strings.TrimSpace(string(body)))
	case resp.StatusCode != http.StatusOK:
		return nil, fmt.Errorf("%w: status %d: %s", ErrRPC, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// Manifest implements Conn.
func (c *HTTPConn) Manifest(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*Manifest, error) {
	url := fmt.Sprintf("%s/manifest?region=%d&bucket=%d&rnd=%d", c.base, region, bucket, rnd)
	if len(exclude) > 0 {
		parts := make([]string, len(exclude))
		for i, id := range exclude {
			parts[i] = strconv.FormatInt(int64(id), 10)
		}
		url += "&exclude=" + strings.Join(parts, ",")
	}
	body, err := c.get(url, maxManifestBytes)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, fmt.Errorf("%w: bad manifest: %v", ErrRPC, err)
	}
	return m, nil
}

// Chunk implements Conn.
func (c *HTTPConn) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	// No chunk is longer than its package; the client holds the
	// manifest and enforces the exact ChunkSize bound.
	return c.get(fmt.Sprintf("%s/chunk?id=%d&idx=%d", c.base, id, idx), maxPublishBytes)
}

// Publish implements Conn.
func (c *HTTPConn) Publish(region, bucket int, revision uint64, data []byte) (jumpstart.PackageID, error) {
	url := fmt.Sprintf("%s/publish?region=%d&bucket=%d&rev=%d", c.base, region, bucket, revision)
	resp, err := c.http.Post(url, "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrTimeout, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxManifestBytes))
	if err != nil || resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%w: publish status %d: %s", ErrRPC, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var out struct {
		ID jumpstart.PackageID `json:"id"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, fmt.Errorf("%w: bad publish response: %v", ErrRPC, err)
	}
	return out.ID, nil
}

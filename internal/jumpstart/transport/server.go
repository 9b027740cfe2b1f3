package transport

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"jumpstart/internal/jumpstart"
	"jumpstart/internal/telemetry"
)

// maxPublishBytes bounds an uploaded package body (a misbehaving
// seeder must not OOM the store).
const maxPublishBytes = 64 << 20

// Server fronts a jumpstart.Store with the chunked package protocol.
// It is used two ways: directly (method calls) by the simulated
// network's SimConn, and over HTTP via Handler for the real
// two-process jumpstartd deployment.
type Server struct {
	store     *jumpstart.Store
	chunkSize int

	// tel observes RPC traffic; telemetry never alters behavior.
	tel *telemetry.Set
}

// NewServer builds a store server (chunkSize <= 0 selects
// DefaultChunkSize).
func NewServer(store *jumpstart.Store, chunkSize int) *Server {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Server{store: store, chunkSize: chunkSize}
}

// Store returns the backing package store.
func (s *Server) Store() *jumpstart.Store { return s.store }

// SetTelemetry installs the observation set for server-side RPC
// counters (may be nil).
func (s *Server) SetTelemetry(tel *telemetry.Set) { s.tel = tel }

// Manifest picks a package for (region, bucket) with the given random
// value and exclusion list, and returns its chunk manifest.
func (s *Server) Manifest(region, bucket int, rnd uint64, exclude []jumpstart.PackageID) (*Manifest, error) {
	p, ok := s.store.Pick(region, bucket, rnd, exclude...)
	if !ok {
		s.tel.Counter("transport.server.no_package_total").Inc()
		return nil, ErrNoPackage
	}
	s.tel.Counter("transport.server.manifests_total").Inc()
	return manifestFor(p, s.chunkSize), nil
}

// Chunk returns the bytes of chunk idx of package id: a read-only,
// capacity-clipped view of the stored payload, not a copy.
func (s *Server) Chunk(id jumpstart.PackageID, idx int) ([]byte, error) {
	p, ok := s.store.Get(id)
	if !ok {
		return nil, fmt.Errorf("%w: package %d not found", ErrRPC, id)
	}
	lo, hi, err := chunkBounds(len(p.Data), s.chunkSize, idx)
	if err != nil {
		return nil, err
	}
	s.tel.Counter("transport.server.chunks_total").Inc()
	return p.Data[lo:hi:hi], nil
}

// Publish stores an uploaded package, stamped with the publisher's
// build revision checksum, and returns its id.
func (s *Server) Publish(region, bucket int, revision uint64, data []byte) jumpstart.PackageID {
	s.tel.Counter("transport.server.publishes_total").Inc()
	return s.store.PublishRevision(region, bucket, data, revision)
}

// Handler returns the HTTP surface of the protocol:
//
//	GET  /manifest?region=R&bucket=B&rnd=N&exclude=1,2  -> Manifest JSON (404 when none)
//	GET  /chunk?id=I&idx=K                              -> chunk bytes, Content-Encoding: gzip
//	POST /publish?region=R&bucket=B&rev=C               -> {"id": N}
//
// This is the only place a chunk is compressed: HTTP is the only real
// wire, and the Content-Encoding header lets net/http (or curl
// --compressed) undo it without the client knowing the format.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/manifest", s.handleManifest)
	mux.HandleFunc("/chunk", s.handleChunk)
	mux.HandleFunc("/publish", s.handlePublish)
	return mux
}

func queryInt(r *http.Request, key string) (int, error) {
	v, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil {
		return 0, fmt.Errorf("bad %s: %v", key, err)
	}
	return v, nil
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	region, err := queryInt(r, "region")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket, err := queryInt(r, "bucket")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rnd, err := strconv.ParseUint(r.URL.Query().Get("rnd"), 10, 64)
	if err != nil {
		http.Error(w, "bad rnd: "+err.Error(), http.StatusBadRequest)
		return
	}
	var exclude []jumpstart.PackageID
	if ex := r.URL.Query().Get("exclude"); ex != "" {
		for _, part := range strings.Split(ex, ",") {
			id, err := strconv.ParseInt(part, 10, 64)
			if err != nil {
				http.Error(w, "bad exclude: "+err.Error(), http.StatusBadRequest)
				return
			}
			exclude = append(exclude, jumpstart.PackageID(id))
		}
	}
	m, err := s.Manifest(region, bucket, rnd, exclude)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(m)
}

func (s *Server) handleChunk(w http.ResponseWriter, r *http.Request) {
	id, err := queryInt(r, "id")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	idx, err := queryInt(r, "idx")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	b, err := s.Chunk(jumpstart.PackageID(id), idx)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Encoding", "gzip")
	// A write error here means the client went away mid-response; it
	// sees a truncated stream and retries, so there is nobody to tell.
	gzipChunk(w, b)
}

// gzipChunk writes one chunk to w in the wire encoding.
func gzipChunk(w io.Writer, b []byte) {
	zw := gzip.NewWriter(w)
	zw.Write(b)
	zw.Close()
}

// wireRoundTrip puts one chunk through the wire encoding and back,
// refusing to inflate past maxLen, as net/http and HTTPConn's bounded
// read do between them on the real wire. SimConn calls it so that a
// simulated chunk RPC costs the host what it cost before the encoding
// moved to the HTTP edge; CHANGES.md (PR 14) says why that is kept.
func wireRoundTrip(b []byte, maxLen int) ([]byte, error) {
	var wire bytes.Buffer
	gzipChunk(&wire, b)
	zr, err := gzip.NewReader(&wire)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	defer zr.Close()
	out, err := io.ReadAll(io.LimitReader(zr, int64(maxLen)+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadChunk, err)
	}
	if len(out) > maxLen {
		return nil, fmt.Errorf("%w: chunk inflates past %d bytes", ErrBadChunk, maxLen)
	}
	return out, nil
}

func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "publish requires POST", http.StatusMethodNotAllowed)
		return
	}
	region, err := queryInt(r, "region")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	bucket, err := queryInt(r, "bucket")
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var revision uint64
	if rev := r.URL.Query().Get("rev"); rev != "" {
		revision, err = strconv.ParseUint(rev, 10, 64)
		if err != nil {
			http.Error(w, "bad rev: "+err.Error(), http.StatusBadRequest)
			return
		}
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, maxPublishBytes+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(data) > maxPublishBytes {
		http.Error(w, "package too large", http.StatusRequestEntityTooLarge)
		return
	}
	id := s.Publish(region, bucket, revision, data)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"id\":%d}\n", id)
}

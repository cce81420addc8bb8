package serve

import (
	"crypto/sha256"
	"hash"
	"strconv"
	"sync"
)

// The raw-request index is the serving stack's byte-level fast path:
// a second result cache keyed by a SHA-256 over the *verbatim*
// request fields, populated whenever a single-estimate request earns
// a 200. A client replaying an identical request body — the common
// shape of design-space probing loops and dashboard refreshes — is
// answered before any XML parsing, canonicalisation or preflight
// work happens: one hash over bytes already in memory, one map
// lookup, one pre-serialized []byte.
//
// The index is sound because the whole pipeline is deterministic: a
// byte-identical request produced these exact response bytes once,
// so it produces them again. Requests differing in irrelevant bytes
// (scheme whitespace, attribute order) miss here and fall through to
// the canonical content-addressed cache, which recognises them by
// their m2t-canonicalised key; the raw index is strictly a cheaper
// front end, never a replacement.

// rawHasher is a pooled scratch for deriving raw keys with zero
// steady-state heap allocations: the SHA-256 state is reused across
// requests, strings are fed chunk-wise through the scratch buffer
// (avoiding []byte(s) conversions), and the digest lands in the
// embedded key array.
type rawHasher struct {
	h   hash.Hash
	key [sha256.Size]byte
	buf [96]byte
}

var rawHashers = sync.Pool{New: func() any { return &rawHasher{h: sha256.New()} }}

// writeString hashes s without converting it to a byte slice.
func (rh *rawHasher) writeString(s string) {
	for len(s) > 0 {
		n := copy(rh.buf[:], s)
		rh.h.Write(rh.buf[:n])
		s = s[n:]
	}
}

// frame hashes one integer in self-delimiting decimal-newline form;
// variable-length fields are preceded by a frame of their length, so
// the overall encoding is injective.
func (rh *rawHasher) frame(v int64) {
	b := strconv.AppendInt(rh.buf[:0], v, 10)
	b = append(b, '\n')
	rh.h.Write(b)
}

// requestKey derives the raw key of req: a SHA-256 over every
// request field verbatim, length-framed. The returned slice aliases
// the hasher's own array and is only valid until the next use.
func (rh *rawHasher) requestKey(req *EstimateRequest) []byte {
	rh.h.Reset()
	rh.writeString("segbus/rawreq/v1\n")
	rh.frame(int64(len(req.PSDF)))
	rh.writeString(req.PSDF)
	rh.frame(int64(len(req.PSM)))
	rh.writeString(req.PSM)
	rh.frame(int64(req.PackageSize))
	rh.frame(int64(len(req.Policy)))
	rh.writeString(req.Policy)
	rh.frame(req.DetectTicks)
	if o := req.Overheads; o != nil {
		rh.frame(1)
		rh.frame(int64(o.GrantTicks))
		rh.frame(int64(o.SyncTicks))
		rh.frame(int64(o.CASetTicks))
		rh.frame(int64(o.CAResetTicks))
	} else {
		rh.frame(0)
	}
	return rh.h.Sum(rh.key[:0])
}

// RawProbe answers an estimate request from the raw-request index
// when an identical request has been served before: the response
// bytes, ready to write verbatim. The probe allocates nothing in
// steady state — it is the first thing the /estimate handler tries
// after decoding, and every request of the repository benchmark's
// serve_warm workload stops here. Exposed for tests and the load
// harness.
func (s *Server) RawProbe(req *EstimateRequest) ([]byte, bool) {
	if s.rawIndex == nil {
		return nil, false
	}
	rh := rawHashers.Get().(*rawHasher)
	body, ok := s.rawIndex.GetBytes(rh.requestKey(req))
	rawHashers.Put(rh)
	return body, ok
}

// rawStore records a 200 response under the request's raw key.
func (s *Server) rawStore(req *EstimateRequest, body []byte) {
	if s.rawIndex == nil {
		return
	}
	rh := rawHashers.Get().(*rawHasher)
	s.rawIndex.PutBytes(rh.requestKey(req), body)
	rawHashers.Put(rh)
}

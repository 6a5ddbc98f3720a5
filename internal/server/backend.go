package server

import (
	"lambmesh/internal/mesh"
	"lambmesh/internal/wire"
)

// WireBackend adapts the server to the binary route protocol. The returned
// backend is safe for concurrent use; wire.Serve calls it once per
// in-flight request.
func (s *Server) WireBackend() wire.Backend { return wireBackend{s} }

type wireBackend struct{ s *Server }

func (b wireBackend) Dims() int { return b.s.mesh.Dims() }

// Query answers through the server's query core against the live epoch;
// the wire protocol carries the compact answer and lets clients
// materialize the path.
func (b wireBackend) Query(src, dst []int, ans *wire.Answer) {
	b.s.query(b.s.Epoch(), mesh.Coord(src), mesh.Coord(dst), ans)
}

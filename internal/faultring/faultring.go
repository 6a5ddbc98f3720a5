// Package faultring is the Boppana–Chalasani fault-ring baseline as a full
// routing data plane: arbitrary node and link faults on a 2D mesh are
// rectangularized — good nodes are iteratively inactivated until every
// fault region is a rectangle and no two fault rings (the one-step good
// boundary around a region) overlap — and messages then follow e-cube (XY)
// base paths with deterministic detours along the rings.
//
// It is the fault-ring baseline throughout: the abl-blockfault experiment
// counts its inactivated nodes and ring turns against lambs (the paper's
// §1 open question), and the bake-off routes traffic over it. Three choices
// go beyond merely counting inactivated nodes, and they matter for a
// head-to-head bake-off against lamb routing:
//
//   - link faults are supported, by sacrificing the link's tail node so the
//     region machinery sees only node blocks (counted in PromotedLinks);
//   - the inactivated node set is materialized, not just counted, so the
//     wormhole engine can exclude sacrificed nodes from traffic endpoints;
//   - ring detours use fixed orientations (X-phase detours over the +y side
//     of a ring, Y-phase detours over the -x side, falling back to the
//     opposite side at a mesh edge) rather than nearest-side detours, and
//     paths are backtrack-trimmed so a worm turns at the detour's sidestep
//     column instead of overshooting into the blocked column and retracing.
//     Same-side detouring keeps the channel sets of opposite-direction flows
//     around a ring disjoint (their crossings use opposite directed channels
//     of the ring columns), and trimming removes the one coupling that
//     defeats this — a retraced approach leg joins the e-cube row channels
//     to the ring cycle. Together with the f-cube2-style message-class VC
//     split in internal/wormhole this removes the single-ring wait cycles
//     that nearest-side detouring admits; deadlock freedom of the full
//     discipline is checked empirically (channel-dependency acyclicity per
//     workload, plus the engine watchdog), not proved.
//
// A pair of active nodes is unreachable exactly when some rectangularized
// region spans the full mesh width across the travel axis (a full band cuts
// the mesh in two); Route reports that as ok=false rather than an error, so
// callers can account explicitly for pairs the scheme cannot serve.
package faultring

import (
	"fmt"

	"lambmesh/internal/mesh"
	"lambmesh/internal/rect"
)

// Message classes in the f-cube2 tradition, determined by the relative
// position of the destination. Column-first: a message with any x
// displacement is WE or EW; pure-column messages are NS or SN.
const (
	ClassWE = iota // dst strictly east of src (+x)
	ClassEW        // dst strictly west of src (-x)
	ClassNS        // same column, dst south of src (-y)
	ClassSN        // same column, dst north of src (+y)
)

// Class returns the message class of a (src, dst) pair.
func Class(src, dst mesh.Coord) int {
	switch {
	case dst[0] > src[0]:
		return ClassWE
	case dst[0] < src[0]:
		return ClassEW
	case dst[1] < src[1]:
		return ClassNS
	default:
		return ClassSN
	}
}

// Model is the rectangularized fault structure plus everything Route needs.
type Model struct {
	Mesh   *mesh.Mesh
	Faults *mesh.FaultSet
	// Regions are the rectangular fault regions, disjoint and with disjoint
	// fault rings (no two one-step expansions intersect), in deterministic
	// discovery order.
	Regions []rect.Rect
	// Inactivated lists the good nodes sacrificed to rectangularize the
	// regions (including promoted link tails), ascending by node index.
	// These nodes neither process nor route — the ring scheme's analogue of
	// the paper's lambs, except strictly worse: a lamb still routes.
	Inactivated []mesh.Coord
	// PromotedLinks counts faulty links absorbed by sacrificing their tail
	// node (links already dead via a blocked endpoint are not counted).
	PromotedLinks int

	blocked []bool // dense by node index: faulty or inactivated
}

// Build rectangularizes fault set f. The fixpoint is: bound each
// 4-connected component of blocked nodes by its rectangle, merge rectangles
// whose one-step expansions intersect (their rings would share nodes), fill
// the rectangles — inactivating any good nodes inside — and repeat until
// nothing changes. The blocked set grows monotonically, so this terminates.
func Build(f *mesh.FaultSet) (*Model, error) {
	m := f.Mesh()
	if m.Dims() != 2 {
		return nil, fmt.Errorf("faultring: the fault-ring baseline is defined for 2D meshes, not %v", m)
	}
	if m.Torus() {
		return nil, fmt.Errorf("faultring: meshes only")
	}
	mod := &Model{Mesh: m, Faults: f, blocked: make([]bool, m.Nodes())}
	for _, c := range f.NodeFaults() {
		mod.blocked[m.Index(c)] = true
	}
	// Absorb link faults: a faulty link whose endpoints are both still
	// usable has no representation in the block model, so its tail is
	// sacrificed. Insertion order makes the choice deterministic.
	for _, l := range f.LinkFaults() {
		if mod.blocked[m.Index(l.From)] || mod.blocked[m.Index(l.To(m))] {
			continue
		}
		mod.blocked[m.Index(l.From)] = true
		mod.PromotedLinks++
	}

	for {
		regions := componentBoxes(m, mod.blocked)
		mergeOverlapping(regions, &regions)
		changed := false
		for _, r := range regions {
			r.ForEach(func(c mesh.Coord) {
				if idx := m.Index(c); !mod.blocked[idx] {
					mod.blocked[idx] = true
					changed = true
				}
			})
		}
		if !changed {
			mod.Regions = regions
			break
		}
	}
	for idx := int64(0); idx < m.Nodes(); idx++ {
		if mod.blocked[idx] {
			if c := m.CoordOf(idx); !f.NodeFaulty(c) {
				mod.Inactivated = append(mod.Inactivated, c)
			}
		}
	}
	return mod, nil
}

// componentBoxes returns the bounding rectangle of every 4-connected
// component of blocked nodes, in ascending order of the component's lowest
// node index.
func componentBoxes(m *mesh.Mesh, blocked []bool) []rect.Rect {
	seen := make([]bool, len(blocked))
	var boxes []rect.Rect
	var stack []int64
	for start := int64(0); start < int64(len(blocked)); start++ {
		if !blocked[start] || seen[start] {
			continue
		}
		box := rect.Point(m.CoordOf(start))
		seen[start] = true
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			idx := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := m.CoordOf(idx)
			for dim := 0; dim < 2; dim++ {
				if c[dim] < box[dim].Lo {
					box[dim].Lo = c[dim]
				}
				if c[dim] > box[dim].Hi {
					box[dim].Hi = c[dim]
				}
				for _, dir := range []int{-1, 1} {
					nb, ok := m.Neighbor(c, dim, dir)
					if !ok {
						continue
					}
					ni := m.Index(nb)
					if blocked[ni] && !seen[ni] {
						seen[ni] = true
						stack = append(stack, ni)
					}
				}
			}
		}
		boxes = append(boxes, box)
	}
	return boxes
}

// mergeOverlapping merges rectangles whose one-step expansions intersect
// into their bounding box, to a fixpoint.
func mergeOverlapping(regions []rect.Rect, out *[]rect.Rect) {
	merged := true
	for merged {
		merged = false
	outer:
		for i := 0; i < len(regions); i++ {
			for j := i + 1; j < len(regions); j++ {
				if expand(regions[i], 1).Intersects(expand(regions[j], 1)) {
					regions[i] = boundingBox(regions[i], regions[j])
					regions = append(regions[:j], regions[j+1:]...)
					merged = true
					break outer
				}
			}
		}
	}
	*out = regions
}

// expand grows a box by delta in every direction (may exceed the mesh;
// used only for intersection tests).
func expand(r rect.Rect, delta int) rect.Rect {
	out := make(rect.Rect, len(r))
	for i, iv := range r {
		out[i] = rect.Interval{Lo: iv.Lo - delta, Hi: iv.Hi + delta}
	}
	return out
}

func boundingBox(a, b rect.Rect) rect.Rect {
	out := make(rect.Rect, len(a))
	for i := range a {
		lo, hi := a[i].Lo, a[i].Hi
		if b[i].Lo < lo {
			lo = b[i].Lo
		}
		if b[i].Hi > hi {
			hi = b[i].Hi
		}
		out[i] = rect.Interval{Lo: lo, Hi: hi}
	}
	return out
}

// Blocked reports whether node c is faulty or inactivated.
func (mod *Model) Blocked(c mesh.Coord) bool { return mod.blocked[mod.Mesh.Index(c)] }

// regionAt returns the region containing c, if any.
func (mod *Model) regionAt(c mesh.Coord) (rect.Rect, bool) {
	for _, r := range mod.Regions {
		if r.Contains(c) {
			return r, true
		}
	}
	return nil, false
}

// Route returns the full node path from src to dst under XY routing with
// ring detours, or ok=false when a full-band region disconnects the pair.
// Both endpoints must be active. The route is deterministic: detours take
// the +y side of a ring in the X phase and the -x side in the Y phase,
// falling back to the opposite side when the ring would leave the mesh,
// except that a detour ending inside the region's travel-axis span (the
// destination column or row abuts the region) exits on the side facing the
// destination. The final path is backtrack-trimmed (see simplify), so a
// worm whose destination column is blocked turns at the detour's sidestep
// column rather than visiting the destination column first.
func (mod *Model) Route(src, dst mesh.Coord) ([]mesh.Coord, bool, error) {
	if mod.Blocked(src) || mod.Blocked(dst) {
		return nil, false, fmt.Errorf("faultring: endpoint inside a fault region (%v -> %v)", src, dst)
	}
	path := []mesh.Coord{src.Clone()}
	cur := src.Clone()
	var ok bool
	for dim := 0; dim < 2; dim++ {
		path, cur, ok = mod.correct(path, cur, dst, dim)
		if !ok {
			return nil, false, nil
		}
	}
	return simplify(path), true, nil
}

// simplify removes backtracks (a -> b -> a collapses to a) until none
// remain. Backtracks arise at a phase boundary: the X phase delivers the
// head to the destination column, the first Y-phase detour sidesteps west,
// and the sidestep leg retraces the eastward approach. The worm must
// instead turn at the sidestep column, because the retraced hops are not
// just wasted — they couple the e-cube approach channels into the ring's
// detour channels, and that coupling closes channel-dependency cycles
// between opposite-direction flows sharing a ring side (found empirically
// by the cross-strategy property suite).
func simplify(path []mesh.Coord) []mesh.Coord {
	out := path[:0]
	for _, c := range path {
		if len(out) >= 2 && out[len(out)-2].Equal(c) {
			out = out[:len(out)-1]
			continue
		}
		out = append(out, c)
	}
	return out
}

// correct advances cur along dim to dst[dim], detouring around regions.
func (mod *Model) correct(path []mesh.Coord, cur, dst mesh.Coord, dim int) ([]mesh.Coord, mesh.Coord, bool) {
	for cur[dim] != dst[dim] {
		dir := 1
		if dst[dim] < cur[dim] {
			dir = -1
		}
		next := cur.Clone()
		next[dim] += dir
		if r, hit := mod.regionAt(next); hit {
			var ok bool
			path, cur, ok = mod.detour(path, cur, dst, r, dim, dir)
			if !ok {
				return path, cur, false
			}
			continue
		}
		cur = next
		path = append(path, cur.Clone())
	}
	return path, cur, true
}

// detour walks around region r along its ring. Every node it visits lies on
// the ring of r (within the one-step expansion, outside the region), which
// is active by construction: rings are disjoint from every other region.
func (mod *Model) detour(path []mesh.Coord, cur, dst mesh.Coord, r rect.Rect, dim, dir int) ([]mesh.Coord, mesh.Coord, bool) {
	other := 1 - dim
	n := mod.Mesh.Width(other)
	lowSide, highSide := r[other].Lo-1, r[other].Hi+1
	walk := func(d, target int) {
		for cur[d] != target {
			step := 1
			if target < cur[d] {
				step = -1
			}
			cur = cur.Clone()
			cur[d] += step
			path = append(path, cur.Clone())
		}
	}

	if r[dim].Contains(dst[dim]) {
		// The target coordinate lies inside the region's span: stop on the
		// ring side facing dst (dst is active, so it sits strictly on one
		// side, which also keeps the side inside the mesh) and leave the
		// rest to the next phase.
		side := highSide
		if dst[other] < r[other].Lo {
			side = lowSide
		}
		walk(other, side)
		walk(dim, dst[dim])
		return path, cur, true
	}

	// Fixed orientation: X-phase crossings ride the +y side, Y-phase
	// crossings the -x side; a ring truncated by the mesh edge flips.
	pref, alt := highSide, lowSide
	if dim == 1 {
		pref, alt = lowSide, highSide
	}
	side := pref
	if side < 0 || side > n-1 {
		side = alt
		if side < 0 || side > n-1 {
			// The region spans the full mesh width: a band with no way
			// around, so the far side is genuinely disconnected.
			return path, cur, false
		}
	}
	// dst[dim] lies strictly past the region (the Contains case above), so
	// the exit column/row exists inside the mesh.
	exit := r[dim].Hi + 1
	if dir < 0 {
		exit = r[dim].Lo - 1
	}
	orig := cur[other]
	walk(other, side)
	walk(dim, exit)
	walk(other, orig)
	return path, cur, true
}

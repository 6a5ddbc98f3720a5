package viz

import (
	"strings"
	"testing"

	"lambmesh/internal/mesh"
)

func TestRenderBasic(t *testing.T) {
	m := mesh.MustNew(4, 3)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(1, 1))
	out, err := Render(f, []mesh.Coord{mesh.C(3, 2)}, Marks{})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Header + 3 node rows + 2 edge rows.
	if len(lines) != 6 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "X") {
		t.Errorf("fault row missing X:\n%s", out)
	}
	if !strings.Contains(lines[5], "L") {
		t.Errorf("lamb row missing L:\n%s", out)
	}
	if strings.Count(out, "X") != 1 || strings.Count(out, "L") != 1 {
		t.Errorf("wrong mark counts:\n%s", out)
	}
	if strings.Count(out, "o") != 10 {
		t.Errorf("want 10 good nodes, got %d:\n%s", strings.Count(out, "o"), out)
	}
}

func TestRenderLinkFaults(t *testing.T) {
	m := mesh.MustNew(3, 3)
	f := mesh.NewFaultSet(m)
	f.AddLink(mesh.Link{From: mesh.C(0, 0), Dim: 0, Dir: 1})
	f.AddLink(mesh.Link{From: mesh.C(1, 1), Dim: 1, Dir: 1})
	out, err := Render(f, nil, Marks{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "-/-") {
		t.Errorf("broken horizontal edge missing:\n%s", out)
	}
	if !strings.Contains(out, "/") {
		t.Errorf("broken vertical edge missing:\n%s", out)
	}
}

func TestRenderExtraMarks(t *testing.T) {
	m := mesh.MustNew(3, 3)
	f := mesh.NewFaultSet(m)
	f.AddNode(mesh.C(0, 0))
	out, err := Render(f, nil, Marks{Extra: map[int64]rune{
		m.Index(mesh.C(1, 1)): 'S',
		m.Index(mesh.C(0, 0)): 'Q', // fault wins over extra
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "S") {
		t.Errorf("extra mark missing:\n%s", out)
	}
	if strings.Contains(out, "Q") {
		t.Errorf("fault should win over extra mark:\n%s", out)
	}
}

func TestRenderRejectsNon2D(t *testing.T) {
	m := mesh.MustNew(3, 3, 3)
	if _, err := Render(mesh.NewFaultSet(m), nil, Marks{}); err == nil {
		t.Error("3D Render should fail")
	}
}

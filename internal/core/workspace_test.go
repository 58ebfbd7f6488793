package core

import (
	"context"
	"testing"

	"graphmat/internal/graph"
	"graphmat/internal/sparse"
)

func TestWorkspaceReuseMatchesFreshRuns(t *testing.T) {
	ws := NewWorkspace[float32, float32](5, Bitvector)
	for trial := 0; trial < 3; trial++ {
		g := fig3Graph(t, graph.Options{Partitions: 2})
		stats, err := RunWithWorkspace(g, ssspProg{}, Config{Threads: 2}, ws)
		if err != nil {
			t.Fatal(err)
		}
		want := []float32{0, 1, 2, 2, 4}
		for v, d := range want {
			if g.Prop(uint32(v)) != d {
				t.Fatalf("trial %d: dist[%d] = %v, want %v", trial, v, g.Prop(uint32(v)), d)
			}
		}
		if stats.Iterations == 0 {
			t.Fatal("no iterations")
		}
	}
}

func TestWorkspaceMismatchErrors(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{}, NewWorkspace[float32, float32](3, Bitvector)); err == nil {
		t.Error("wrong-size workspace accepted")
	}
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Vector: Sorted}, NewWorkspace[float32, float32](5, Bitvector)); err == nil {
		t.Error("wrong-kind workspace accepted")
	}
}

func TestWorkspaceBoxedPathIgnoresWorkspace(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	// Deliberately mismatched workspace: boxed dispatch must not touch it.
	ws := NewWorkspace[float32, float32](1, Bitvector)
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Dispatch: Boxed}, ws); err != nil {
		t.Fatalf("boxed path rejected workspace it should ignore: %v", err)
	}
	if g.Prop(4) != 4 {
		t.Errorf("dist[E] = %v", g.Prop(4))
	}
}

// TestWorkspaceSortedKind pins that the sorted message vector is a
// boxed-only ablation: the inlined engine and the single-shot SpMV reject
// it, with or without a matching workspace, before touching the graph.
func TestWorkspaceSortedKind(t *testing.T) {
	g := fig3Graph(t, graph.Options{})
	ws := NewWorkspace[float32, float32](5, Sorted)
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Vector: Sorted}, ws); err == nil {
		t.Error("Sorted with inlined dispatch accepted")
	}
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Vector: Sorted}, nil); err == nil {
		t.Error("Sorted with inlined dispatch accepted without a workspace")
	}
	if g.Prop(4) != inf || g.Prop(0) != 0 {
		t.Errorf("rejected run touched the graph: dist = %v", g.Props())
	}
	x := sparse.NewVector[float32](5)
	x.Set(0, 0)
	if _, err := SpMVContext[float32, float32, float32, float32](context.Background(), g, x, ssspProg{}, Config{Vector: Sorted}); err == nil {
		t.Error("SpMVContext accepted Sorted with inlined dispatch")
	}
	if _, err := RunWithWorkspace(g, ssspProg{}, Config{Vector: Sorted, Dispatch: Boxed}, ws); err != nil {
		t.Fatalf("boxed sorted run rejected: %v", err)
	}
	if g.Prop(4) != 4 {
		t.Errorf("boxed sorted dist[E] = %v", g.Prop(4))
	}
}

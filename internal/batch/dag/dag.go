// Package dag models one POST /batch request as a directed acyclic
// graph of jobs and schedules it onto the sweep worker pool.
//
// The paper's workflow is inherently structured — calibrate a bus
// model once, project many kernels and sizes against it, then sweep
// iterations at the winning configuration — so real batch traffic has
// edges: "run these projections, then drill into the winner". A batch
// job may declare an id and a dependsOn list; Build validates the
// resulting graph (duplicate ids, unknown references, self-loops, and
// cycles are per-request errors), and Graph.Run dispatches jobs as
// their parents succeed, marks the descendants of a failed job as
// skipped without running them, and reports every job — run or
// skipped — in a deterministic topological order so response bodies
// stay reproducible.
//
// Determinism: the emission order is fixed by the graph alone (Kahn's
// algorithm, smallest request index first), never by scheduling
// timing. An edge-free batch therefore emits in request order,
// exactly like the pre-DAG fan-out, and the same DAG posted twice
// yields rows in the same order both times even though execution is
// parallel and opportunistic.
package dag

import (
	"strconv"
	"strings"

	"grophecy/internal/errdefs"
)

// Node is one job's graph shape: its declared identity and the ids of
// the jobs it depends on. Both are optional — a batch whose nodes
// carry neither is the legacy edge-free array.
type Node struct {
	ID        string
	DependsOn []string
}

// Graph is a validated batch DAG over n jobs, indexed 0..n-1 in
// request order. Build is the only constructor.
type Graph struct {
	nodes    []Node
	index    map[string]int // explicit id -> job index
	parents  [][]int
	children [][]int
	order    []int // deterministic topological order
	depth    int   // longest dependency chain, in jobs
	hasEdges bool
}

// Build validates the nodes and returns the graph. Every validation
// failure wraps errdefs.ErrInvalidInput and describes the offending
// jobs, so an HTTP layer can surface it as a 400 verbatim.
func Build(nodes []Node) (*Graph, error) {
	n := len(nodes)
	g := &Graph{
		nodes:    nodes,
		index:    make(map[string]int, n),
		parents:  make([][]int, n),
		children: make([][]int, n),
	}
	for i, node := range nodes {
		if node.ID == "" {
			continue
		}
		if j, dup := g.index[node.ID]; dup {
			return nil, errdefs.Invalidf("batch dag: jobs %d and %d share id %q", j, i, node.ID)
		}
		g.index[node.ID] = i
	}
	for i, node := range nodes {
		for _, dep := range node.DependsOn {
			j, ok := g.index[dep]
			if !ok {
				return nil, errdefs.Invalidf("batch dag: job %s depends on unknown id %q",
					describe(i, node.ID), dep)
			}
			if j == i {
				return nil, errdefs.Invalidf("batch dag: job %s depends on itself",
					describe(i, node.ID))
			}
			if hasEdge(g.parents[i], j) {
				// A repeated id in one dependsOn list is harmless intent;
				// keep the edge set simple instead of erroring.
				continue
			}
			g.parents[i] = append(g.parents[i], j)
			g.children[j] = append(g.children[j], i)
			g.hasEdges = true
		}
	}
	if err := g.sort(); err != nil {
		return nil, err
	}
	return g, nil
}

func hasEdge(edges []int, j int) bool {
	for _, e := range edges {
		if e == j {
			return true
		}
	}
	return false
}

// sort computes the deterministic topological order (Kahn's
// algorithm, always picking the smallest ready request index) and the
// graph depth, and rejects cycles naming their members.
func (g *Graph) sort() error {
	n := len(g.nodes)
	indegree := make([]int, n)
	placed := make([]bool, n)
	depth := make([]int, n)
	for i := range g.nodes {
		indegree[i] = len(g.parents[i])
	}
	g.order = make([]int, 0, n)
	for len(g.order) < n {
		// n is bounded by the batch job cap, so the O(n^2) smallest-
		// ready scan is cheaper than maintaining a heap and keeps ties
		// trivially deterministic.
		next := -1
		for i := 0; i < n; i++ {
			if !placed[i] && indegree[i] == 0 {
				next = i
				break
			}
		}
		if next < 0 {
			var cyc []string
			for i := 0; i < n; i++ {
				if !placed[i] {
					cyc = append(cyc, describe(i, g.nodes[i].ID))
				}
			}
			return errdefs.Invalidf("batch dag: dependency cycle through jobs %s",
				strings.Join(cyc, ", "))
		}
		placed[next] = true
		g.order = append(g.order, next)
		depth[next] = 1
		for _, p := range g.parents[next] {
			if depth[p]+1 > depth[next] {
				depth[next] = depth[p] + 1
			}
		}
		if depth[next] > g.depth {
			g.depth = depth[next]
		}
		for _, c := range g.children[next] {
			indegree[c]--
		}
	}
	return nil
}

// Len returns the number of jobs.
func (g *Graph) Len() int { return len(g.nodes) }

// HasEdges reports whether any job declared a dependency — false for
// the legacy edge-free array, whose response shape must not change.
func (g *Graph) HasEdges() bool { return g.hasEdges }

// Depth is the longest dependency chain measured in jobs: 1 for a
// non-empty edge-free batch, 0 for an empty graph.
func (g *Graph) Depth() int { return g.depth }

// Parents returns a copy of job i's direct dependencies, in
// declaration order.
func (g *Graph) Parents(i int) []int {
	return append([]int(nil), g.parents[i]...)
}

// ID returns job i's declared id ("" when unnamed).
func (g *Graph) ID(i int) string { return g.nodes[i].ID }

// Describe renders job i for error messages: its id when declared,
// its request index otherwise.
func (g *Graph) Describe(i int) string { return describe(i, g.nodes[i].ID) }

func describe(i int, id string) string {
	if id != "" {
		return `"` + id + `"`
	}
	return "#" + strconv.Itoa(i)
}

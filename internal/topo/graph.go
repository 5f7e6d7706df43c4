package topo

import "net/netip"

// Connectivity. Reachability verdicts depend on which devices of a
// cluster share a connected component of the live-circuit graph, so a
// cluster is dirtied only when an edge change merges or splits
// components and the cluster has members on both sides. edgeAdded and
// edgeRemoved find that out with a two-sided search that stops as soon
// as the ends meet or the smaller side is exhausted: the cost is bounded
// by the smaller component, not the fleet.

func (x *Index) edgeAdded(a, z int64) {
	t := x.t
	connected := x.quiet || t.adj[a][z] > 0
	if !connected {
		var small set[int64]
		connected, small = t.connected(a, z)
		if !connected {
			x.markSplitClusters(small)
		}
	}
	addAdj(t.adj, a, z)
	addAdj(t.adj, z, a)
}

func (x *Index) edgeRemoved(a, z int64) {
	t := x.t
	delAdj(t.adj, a, z)
	delAdj(t.adj, z, a)
	if x.quiet || t.adj[a][z] > 0 {
		return
	}
	if connected, small := t.connected(a, z); !connected {
		x.markSplitClusters(small)
	}
}

// markSplitClusters marks every cluster with members both inside the
// component small and outside it.
func (x *Index) markSplitClusters(small set[int64]) {
	t := x.t
	seen := set[int64]{}
	for d := range small {
		cl := t.devices[d].Cluster
		if cl == 0 {
			continue
		}
		if _, done := seen[cl]; done {
			continue
		}
		seen[cl] = struct{}{}
		for m := range t.clusterDev[cl] {
			if _, in := small[m]; !in {
				x.markCluster(cl)
				break
			}
		}
	}
}

// connected searches from a and z alternately, always growing the side
// that has seen fewer devices. When the sides meet it returns true;
// otherwise the exhausted side's visited set is a whole component.
func (t *Topology) connected(a, z int64) (bool, set[int64]) {
	if a == z {
		return true, nil
	}
	seen := [2]set[int64]{{a: {}}, {z: {}}}
	queue := [2][]int64{{a}, {z}}
	for {
		s := 0
		if len(seen[1]) < len(seen[0]) {
			s = 1
		}
		if len(queue[s]) == 0 {
			return false, seen[s]
		}
		cur := queue[s][0]
		queue[s] = queue[s][1:]
		for n := range t.adj[cur] {
			if _, met := seen[1-s][n]; met {
				return true, nil
			}
			if _, ok := seen[s][n]; !ok {
				seen[s][n] = struct{}{}
				queue[s] = append(queue[s], n)
			}
		}
	}
}

func addAdj(adj map[int64]map[int64]int, a, z int64) {
	m := adj[a]
	if m == nil {
		m = map[int64]int{}
		adj[a] = m
	}
	m[z]++
}

func delAdj(adj map[int64]map[int64]int, a, z int64) {
	m := adj[a]
	if m == nil {
		return
	}
	if m[z]--; m[z] <= 0 {
		delete(m, z)
	}
	if len(m) == 0 {
		delete(adj, a)
	}
}

// trieNode is a binary trie over address bits; a node at depth d with
// term set is an occupied /d subnet.
type trieNode struct {
	child [2]*trieNode
	term  bool
	pfx   netip.Prefix
}

func (t *Topology) trie(s netip.Prefix) *trieNode {
	if s.Addr().Is4() {
		return t.tries[0]
	}
	return t.tries[1]
}

func bitAt(a netip.Addr, i int) int {
	b := a.AsSlice()
	return int(b[i/8]>>(7-uint(i%8))) & 1
}

func (n *trieNode) insert(s netip.Prefix) {
	a := s.Addr()
	for i := 0; i < s.Bits(); i++ {
		b := bitAt(a, i)
		if n.child[b] == nil {
			n.child[b] = &trieNode{}
		}
		n = n.child[b]
	}
	n.term, n.pfx = true, s
}

func (n *trieNode) remove(s netip.Prefix) {
	a := s.Addr()
	path := make([]*trieNode, 0, s.Bits()+1)
	path = append(path, n)
	for i := 0; i < s.Bits(); i++ {
		n = n.child[bitAt(a, i)]
		if n == nil {
			return
		}
		path = append(path, n)
	}
	n.term = false
	// Prune nodes left with neither a subnet nor children.
	for i := len(path) - 1; i > 0; i-- {
		p := path[i]
		if p.term || p.child[0] != nil || p.child[1] != nil {
			return
		}
		path[i-1].child[bitAt(a, i-1)] = nil
	}
}

// hasAncestor reports whether an occupied subnet strictly contains s.
func (n *trieNode) hasAncestor(s netip.Prefix) bool {
	a := s.Addr()
	for i := 0; i < s.Bits(); i++ {
		if n.term {
			return true
		}
		n = n.child[bitAt(a, i)]
		if n == nil {
			return false
		}
	}
	return false
}

// descendants calls fn for every occupied subnet strictly inside s.
func (n *trieNode) descendants(s netip.Prefix, fn func(netip.Prefix)) {
	a := s.Addr()
	for i := 0; i < s.Bits(); i++ {
		n = n.child[bitAt(a, i)]
		if n == nil {
			return
		}
	}
	var walk func(*trieNode)
	walk = func(m *trieNode) {
		for _, c := range m.child {
			if c != nil {
				if c.term {
					fn(c.pfx)
				}
				walk(c)
			}
		}
	}
	walk(n)
}

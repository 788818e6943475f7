// Package merge implements virtualized-merged lookup structures (Section
// II-A.2, IV-C of the paper): K per-network uni-bit tries are overlaid into a
// single shared trie whose leaves carry a K-wide next-hop-information (NHI)
// vector indexed by the virtual network identifier (VNID). The package also
// measures the merging efficiency α (Assumption 4) and provides the analytic
// node-sharing model used by the power equations.
package merge

import (
	"fmt"

	"vrpower/internal/ip"
	"vrpower/internal/rib"
	"vrpower/internal/trie"
)

// vnRoute records that virtual network VN announces a route with next hop NH
// at a merged node.
type vnRoute struct {
	vn int
	nh ip.NextHop
}

// Node is one node of the merged trie. Present tracks how many of the K
// source tries contain this node position; after leaf pushing, leaves carry
// the NHI vector for all K networks.
type Node struct {
	Child [2]*Node
	// Present is the number of source tries containing this node.
	Present int
	// routes holds pre-push per-VN routes attached at this node.
	routes []vnRoute
	// NHI is the K-wide next-hop vector; non-nil only at leaves after
	// leaf pushing (Section V-D: "a leaf node is simply a vector that has
	// routing information corresponding to all the considered virtual
	// networks ... indexed using the VNID").
	NHI []ip.NextHop
}

// IsLeaf reports whether n has no children.
func (n *Node) IsLeaf() bool { return n.Child[0] == nil && n.Child[1] == nil }

// Trie is the merged lookup structure for K virtual networks.
type Trie struct {
	root   *Node
	k      int
	pushed bool
}

// K returns the number of virtual networks merged into the trie.
func (t *Trie) K() int { return t.k }

// Root exposes the root node for traversals by sibling packages.
func (t *Trie) Root() *Node { return t.root }

// LeafPushed reports whether NHI vectors have been pushed to the leaves.
func (t *Trie) LeafPushed() bool { return t.pushed }

// Build overlays the K tables into one merged trie. Tables must be non-empty
// as a set; individual tables may be empty.
func Build(tables []*rib.Table) (*Trie, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("merge: no tables to merge")
	}
	t := &Trie{root: &Node{}, k: len(tables)}
	for vn, tbl := range tables {
		for _, r := range tbl.Routes {
			t.insert(vn, r.Prefix, r.NextHop)
		}
		// Mark presence along every path of this VN's trie: a node is
		// "present" for vn if vn's individual trie would contain it.
		markPresence(t.root, trie.Build(tbl.Routes).Root())
	}
	return t, nil
}

// insert adds vn's route for p, creating merged structure as needed.
func (t *Trie) insert(vn int, p ip.Prefix, nh ip.NextHop) {
	n := t.root
	for i := 0; i < p.Len; i++ {
		b := p.Bit(i)
		if n.Child[b] == nil {
			n.Child[b] = &Node{}
		}
		n = n.Child[b]
	}
	for i := range n.routes {
		if n.routes[i].vn == vn {
			n.routes[i].nh = nh
			return
		}
	}
	n.routes = append(n.routes, vnRoute{vn, nh})
}

// markPresence increments Present on each merged node that exists in the
// individual trie rooted at src (positions correspond one-to-one because the
// merged trie is a structural superset).
func markPresence(dst *Node, src *trie.Node) {
	dst.Present++
	for b := 0; b < 2; b++ {
		if src.Child[b] != nil {
			markPresence(dst.Child[b], src.Child[b])
		}
	}
}

// LeafPush pushes every network's inherited next hops down to the merged
// leaves and installs the K-wide NHI vectors. Every internal node ends up
// with exactly two children, so a lookup always terminates at a leaf.
func (t *Trie) LeafPush() {
	if t.pushed {
		return
	}
	inherited := make([]ip.NextHop, t.k)
	t.pushNode(t.root, inherited)
	t.pushed = true
}

func (t *Trie) pushNode(n *Node, inherited []ip.NextHop) {
	// Overlay this node's own routes on the inherited vector. Copy before
	// mutation so siblings see the parent's vector.
	if len(n.routes) > 0 {
		next := make([]ip.NextHop, t.k)
		copy(next, inherited)
		for _, r := range n.routes {
			next[r.vn] = r.nh
		}
		inherited = next
	}
	if n.IsLeaf() {
		n.NHI = make([]ip.NextHop, t.k)
		copy(n.NHI, inherited)
		n.routes = nil
		return
	}
	for b := 0; b < 2; b++ {
		if n.Child[b] == nil {
			n.Child[b] = &Node{}
		}
		t.pushNode(n.Child[b], inherited)
	}
	n.routes = nil
}

// Lookup resolves addr for virtual network vn. On a leaf-pushed trie the
// walk ends at a leaf; on a plain merged trie the deepest route for vn on
// the walk wins. vn must be in [0, K).
func (t *Trie) Lookup(vn int, addr ip.Addr) ip.NextHop {
	if vn < 0 || vn >= t.k {
		panic(fmt.Sprintf("merge: Lookup vn %d out of range [0,%d)", vn, t.k))
	}
	best := ip.NoRoute
	n := t.root
	for i := 0; n != nil; i++ {
		if n.NHI != nil {
			return n.NHI[vn]
		}
		for _, r := range n.routes {
			if r.vn == vn {
				best = r.nh
			}
		}
		if i == 32 {
			break
		}
		n = n.Child[addr.Bit(i)]
	}
	return best
}

// Stats summarises the merged trie, including the measured merging
// efficiency α = common nodes / total nodes (Assumption 4), where a common
// node is one present in at least two of the K source tries.
type Stats struct {
	Nodes    int
	Leaves   int
	Internal int
	Common   int // nodes present in >= 2 source tries
	Alpha    float64
	Height   int
	PerLevel []Level
}

// Level holds per-level merged node counts, in the source tries' per-level
// shape.
type Level = trie.Level

// Stats walks the merged trie. Note that nodes created by leaf pushing have
// Present == 0 (they exist in no source trie); they count toward Nodes but
// not toward Common, keeping α a property of the pre-push overlap as the
// paper defines it.
func (t *Trie) Stats() Stats {
	s := Stats{PerLevel: make([]Level, 33)}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		s.Nodes++
		if depth > s.Height {
			s.Height = depth
		}
		if n.Present >= 2 {
			s.Common++
		}
		lv := &s.PerLevel[depth]
		lv.Nodes++
		if n.IsLeaf() {
			s.Leaves++
			lv.Leaves++
		} else {
			s.Internal++
			lv.Internal++
			for b := 0; b < 2; b++ {
				if n.Child[b] != nil {
					walk(n.Child[b], depth+1)
				}
			}
		}
	}
	walk(t.root, 0)
	s.PerLevel = s.PerLevel[:s.Height+1]
	if s.Nodes > 0 {
		s.Alpha = float64(s.Common) / float64(s.Nodes)
	}
	return s
}

// AnalyticNodes is the node-sharing model used by the power equations: K
// tries of m nodes each, where a fraction α of the merged trie's nodes are
// shared by all K networks, merge into
//
//	T = K·m / (1 + (K-1)·α)
//
// nodes. α = 1 recovers a single trie (full overlap, T = m); α = 0 recovers
// disjoint storage (T = K·m). Higher α therefore means more merging benefit,
// matching Fig. 4's α = 80% vs α = 20% ordering.
func AnalyticNodes(k int, m float64, alpha float64) float64 {
	if k <= 0 {
		return 0
	}
	return float64(k) * m / (1 + float64(k-1)*alpha)
}

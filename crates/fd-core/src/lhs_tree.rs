//! Extended binary tree over LHS attribute sets.
//!
//! This is the cover data structure of Section IV-D (proposed originally for
//! AID-FD): one tree per RHS attribute stores the LHSs of the stored
//! FDs/non-FDs. Inner nodes split on whether an attribute is contained in an
//! LHS — sets containing the split attribute live in the `with` subtree, the
//! rest in the `without` subtree. Every node caches the **intersection of all
//! LHSs stored beneath it**, which prunes generalization searches early: if
//! that intersection is not a subset of the queried set, no descendant can be
//! either (every stored set is a superset of the intersection).
//!
//! Leaves are buckets: each holds up to [`LEAF_CAPACITY`] sets in one
//! contiguous vector that queries scan linearly. A full leaf splits on the
//! attribute whose frequency among its sets is closest to half (the paper's
//! §IV-D balance heuristic; ties go to the lowest id), so both halves stay
//! comparable in size and subset walks do not run down long one-sided
//! chains. Sibling leaves that shrink below half a bucket together merge
//! back into one.
//!
//! Nodes live in an index-based arena (`Vec<Node>` + free list) rather than
//! `Box`es: these trees sit on the inversion hot path, where pointer-chasing
//! through scattered allocations measurably hurts on the FD-dense datasets
//! (horse, plista, flight — covers of 10⁵–10⁶ entries).
//!
//! Terminology used throughout, matching the paper:
//! * a stored set `S` is a *generalization* of query `Q` iff `S ⊆ Q`
//!   (non-strict — `X ↛ A` invalidates `Y → A` for every `Y ⊆ X`);
//! * a stored set `S` is a *specialization* of query `Q` iff `S ⊇ Q`;
//! * a stored set `S` is a *near subset* of `Q` iff `|S \ Q| = 1`.

use crate::attrset::{AttrId, AttrSet, MAX_ATTRS};

/// Most sets one leaf holds before it splits. Queries scan a leaf linearly,
/// so this trades tree depth (and the cached intersections that prune it)
/// against scan length; 32 sets of 32 bytes are one kilobyte of contiguous
/// memory.
pub const LEAF_CAPACITY: usize = 32;

/// Two sibling leaves that hold at most this many sets together merge into
/// one. Half a bucket, not a full one, so a leaf that just split does not
/// merge back after a single removal.
const MERGE_LIMIT: usize = LEAF_CAPACITY / 2;

type NodeId = u32;
const NIL: NodeId = u32::MAX;

#[derive(Clone, Debug)]
enum Node {
    /// 1..=[`LEAF_CAPACITY`] distinct sets.
    Leaf {
        sets: Vec<AttrSet>,
        /// Intersection of `sets`.
        intersection: AttrSet,
    },
    /// Both children are always live: a node left with one child is
    /// replaced by that child.
    Inner {
        /// Split attribute: sets containing it are in `with`, others in `without`.
        attr: AttrId,
        /// Intersection of every set stored in this subtree.
        intersection: AttrSet,
        without: NodeId,
        with: NodeId,
    },
    /// Arena slot on the free list, pointing at the next free slot.
    Free(NodeId),
}

impl Node {
    fn leaf(sets: Vec<AttrSet>) -> Node {
        let intersection = intersection_of(&sets);
        Node::Leaf { sets, intersection }
    }

    fn intersection(&self) -> AttrSet {
        match self {
            Node::Leaf { intersection, .. } | Node::Inner { intersection, .. } => *intersection,
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }
}

fn intersection_of(sets: &[AttrSet]) -> AttrSet {
    let mut it = sets.iter();
    let first = it.next().copied().unwrap_or_default();
    it.fold(first, |acc, s| acc.intersect(s))
}

/// The attribute to split a full leaf on: among attributes in some but not
/// all of `sets`, the one whose count is closest to half, lowest id on ties.
/// `sets` holds at least two distinct sets, so such an attribute exists.
fn balanced_split_attr(sets: &[AttrSet]) -> AttrId {
    let mut counts = [0u16; MAX_ATTRS];
    let mut union = AttrSet::empty();
    for s in sets {
        union = union.union(s);
        for a in s.iter() {
            counts[a as usize] += 1;
        }
    }
    let n = sets.len();
    let mut best = (usize::MAX, 0);
    for a in union.difference(&intersection_of(sets)).iter() {
        let distance = (2 * counts[a as usize] as usize).abs_diff(n);
        if distance < best.0 {
            best = (distance, a);
        }
    }
    debug_assert!(best.0 != usize::MAX, "a full leaf holds distinct sets");
    best.1
}

/// A set of LHS attribute sets with fast subset/superset queries.
///
/// ```
/// use fd_core::{AttrSet, LhsTree};
///
/// let mut tree = LhsTree::new();
/// tree.insert(AttrSet::from_attrs([1u16, 2]));
/// tree.insert(AttrSet::from_attrs([3u16]));
///
/// // {1,2} generalizes {1,2,4}; {3} does not.
/// assert!(tree.contains_subset_of(&AttrSet::from_attrs([1u16, 2, 4])));
/// // {1,2} specializes {2}.
/// assert!(tree.contains_superset_of(&AttrSet::from_attrs([2u16])));
///
/// // Stripping generalizations of {1,2,3} removes both stored sets.
/// let removed = tree.remove_subsets_of(&AttrSet::from_attrs([1u16, 2, 3]));
/// assert_eq!(removed.len(), 2);
/// assert!(tree.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct LhsTree {
    nodes: Vec<Node>,
    free: NodeId,
    root: NodeId,
    len: usize,
}

impl Default for LhsTree {
    fn default() -> Self {
        Self::new()
    }
}

impl LhsTree {
    /// An empty tree.
    pub fn new() -> Self {
        LhsTree { nodes: Vec::new(), free: NIL, root: NIL, len: 0 }
    }

    /// Number of stored LHSs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: Node) -> NodeId {
        if self.free != NIL {
            let id = self.free;
            self.free = match self.nodes[id as usize] {
                Node::Free(next) => next,
                _ => unreachable!("free list points at a live node"),
            };
            self.nodes[id as usize] = node;
            id
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as NodeId
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id as usize] = Node::Free(self.free);
        self.free = id;
    }

    /// Inserts `lhs`; returns true if it was not already present.
    pub fn insert(&mut self, lhs: AttrSet) -> bool {
        if self.root == NIL {
            self.root = self.alloc(Node::leaf(vec![lhs]));
            self.len = 1;
            return true;
        }
        let mut cur = self.root;
        loop {
            match &mut self.nodes[cur as usize] {
                Node::Inner { attr, intersection, without, with } => {
                    // `lhs` joins this subtree, so the cached intersection
                    // narrows to it. If `lhs` is already stored below, the
                    // intersection is a subset of it and nothing changes.
                    *intersection = intersection.intersect(&lhs);
                    cur = if lhs.contains(*attr) { *with } else { *without };
                }
                Node::Leaf { sets, intersection } => {
                    if sets.contains(&lhs) {
                        return false;
                    }
                    sets.push(lhs);
                    *intersection = intersection.intersect(&lhs);
                    if sets.len() > LEAF_CAPACITY {
                        self.split(cur);
                    }
                    self.len += 1;
                    return true;
                }
                Node::Free(_) => unreachable!("live traversal reached a free slot"),
            }
        }
    }

    /// Turns the overfull leaf `id` into an inner node over two leaves.
    fn split(&mut self, id: NodeId) {
        let Node::Leaf { sets, intersection } =
            std::mem::replace(&mut self.nodes[id as usize], Node::Free(NIL))
        else {
            unreachable!("only leaves split");
        };
        let attr = balanced_split_attr(&sets);
        let (with_sets, without_sets): (Vec<AttrSet>, Vec<AttrSet>) =
            sets.into_iter().partition(|s| s.contains(attr));
        let without = self.alloc(Node::leaf(without_sets));
        let with = self.alloc(Node::leaf(with_sets));
        self.nodes[id as usize] = Node::Inner { attr, intersection, without, with };
    }

    /// True if some stored set is a subset of `query` (a *generalization*).
    pub fn contains_subset_of(&self, query: &AttrSet) -> bool {
        self.root != NIL && self.contains_subset_from(self.root, query)
    }

    fn contains_subset_from(&self, id: NodeId, query: &AttrSet) -> bool {
        match &self.nodes[id as usize] {
            Node::Leaf { sets, intersection } => {
                intersection.is_subset_of(query) && sets.iter().any(|s| s.is_subset_of(query))
            }
            Node::Inner { attr, intersection, without, with } => {
                // Intersection pruning: every stored set ⊇ intersection, so a
                // stored subset of `query` forces intersection ⊆ query.
                intersection.is_subset_of(query)
                    && (self.contains_subset_from(*without, query)
                        || (query.contains(*attr) && self.contains_subset_from(*with, query)))
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// True if some stored set is a superset of `query` (a *specialization*).
    pub fn contains_superset_of(&self, query: &AttrSet) -> bool {
        self.root != NIL && self.contains_superset_from(self.root, query)
    }

    fn contains_superset_from(&self, id: NodeId, query: &AttrSet) -> bool {
        match &self.nodes[id as usize] {
            // Shortcut on both node kinds: if the query is below the subtree
            // intersection, every stored set here is a superset.
            Node::Leaf { sets, intersection } => {
                query.is_subset_of(intersection) || sets.iter().any(|s| query.is_subset_of(s))
            }
            Node::Inner { attr, intersection, without, with } => {
                query.is_subset_of(intersection)
                    || self.contains_superset_from(*with, query)
                    // Sets lacking `attr` can only cover queries lacking it.
                    || (!query.contains(*attr) && self.contains_superset_from(*without, query))
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Collects all stored subsets of `query` without removing them.
    pub fn collect_subsets_of(&self, query: &AttrSet) -> Vec<AttrSet> {
        let mut out = Vec::new();
        if self.root != NIL {
            self.collect_subsets_from(self.root, query, &mut out);
        }
        out
    }

    fn collect_subsets_from(&self, id: NodeId, query: &AttrSet, out: &mut Vec<AttrSet>) {
        match &self.nodes[id as usize] {
            Node::Leaf { sets, intersection } => {
                if intersection.is_subset_of(query) {
                    out.extend(sets.iter().filter(|s| s.is_subset_of(query)));
                }
            }
            Node::Inner { attr, intersection, without, with } => {
                if !intersection.is_subset_of(query) {
                    return;
                }
                self.collect_subsets_from(*without, query, out);
                if query.contains(*attr) {
                    self.collect_subsets_from(*with, query, out);
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Appends to `out` every stored set `S` with exactly one attribute
    /// outside `query` (`|S \ query| = 1`). Inversion uses these: once no
    /// stored set is a subset of a non-FD's LHS, they are the only sets that
    /// can block a candidate one attribute larger than a subset of it.
    pub fn collect_near_subsets_of(&self, query: &AttrSet, out: &mut Vec<AttrSet>) {
        if self.root != NIL {
            self.collect_near_subsets_from(self.root, query, out);
        }
    }

    fn collect_near_subsets_from(&self, id: NodeId, query: &AttrSet, out: &mut Vec<AttrSet>) {
        let node = &self.nodes[id as usize];
        // Every set below has the intersection's attributes outside `query`.
        if node.intersection().difference(query).len() > 1 {
            return;
        }
        match node {
            Node::Leaf { sets, .. } => {
                out.extend(sets.iter().filter(|s| s.difference(query).len() == 1));
            }
            Node::Inner { without, with, .. } => {
                self.collect_near_subsets_from(*without, query, out);
                self.collect_near_subsets_from(*with, query, out);
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Collects all stored supersets of `query` without removing them.
    pub fn collect_supersets_of(&self, query: &AttrSet) -> Vec<AttrSet> {
        let mut out = Vec::new();
        if self.root != NIL {
            self.collect_supersets_from(self.root, query, &mut out);
        }
        out
    }

    fn collect_supersets_from(&self, id: NodeId, query: &AttrSet, out: &mut Vec<AttrSet>) {
        match &self.nodes[id as usize] {
            Node::Leaf { sets, .. } => {
                out.extend(sets.iter().filter(|s| query.is_subset_of(s)));
            }
            Node::Inner { attr, without, with, .. } => {
                self.collect_supersets_from(*with, query, out);
                if !query.contains(*attr) {
                    self.collect_supersets_from(*without, query, out);
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Removes every stored subset of `query` and returns them. Used by the
    /// inversion module to strip invalidated generalizations from the Pcover
    /// and by the Ncover to keep only maximal non-FDs.
    pub fn remove_subsets_of(&mut self, query: &AttrSet) -> Vec<AttrSet> {
        let mut removed = Vec::new();
        self.remove_subsets_into(query, &mut removed);
        removed
    }

    /// [`LhsTree::remove_subsets_of`] appending to a caller-owned buffer;
    /// returns how many sets it removed.
    pub(crate) fn remove_subsets_into(
        &mut self,
        query: &AttrSet,
        removed: &mut Vec<AttrSet>,
    ) -> usize {
        let before = removed.len();
        if self.root != NIL {
            self.root = self.remove_subsets_from(self.root, query, removed);
        }
        let count = removed.len() - before;
        self.len -= count;
        count
    }

    fn remove_subsets_from(
        &mut self,
        id: NodeId,
        query: &AttrSet,
        removed: &mut Vec<AttrSet>,
    ) -> NodeId {
        match &mut self.nodes[id as usize] {
            Node::Leaf { sets, intersection } => {
                if !intersection.is_subset_of(query) {
                    return id;
                }
                let before = removed.len();
                sets.retain(|s| {
                    let hit = s.is_subset_of(query);
                    if hit {
                        removed.push(*s);
                    }
                    !hit
                });
                if sets.is_empty() {
                    self.release(id);
                    return NIL;
                }
                if removed.len() != before {
                    *intersection = intersection_of(sets);
                }
                id
            }
            Node::Inner { attr, intersection, without, with } => {
                if !intersection.is_subset_of(query) {
                    return id;
                }
                let (attr, without, with) = (*attr, *without, *with);
                let before = removed.len();
                let new_without = self.remove_subsets_from(without, query, removed);
                let new_with = if query.contains(attr) {
                    self.remove_subsets_from(with, query, removed)
                } else {
                    with
                };
                if removed.len() == before {
                    return id;
                }
                self.update_children(id, new_without, new_with)
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Removes the exact set `lhs`; returns true if it was present.
    pub fn remove(&mut self, lhs: &AttrSet) -> bool {
        let mut removed = false;
        if self.root != NIL {
            self.root = self.remove_exact_from(self.root, lhs, &mut removed);
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    fn remove_exact_from(&mut self, id: NodeId, lhs: &AttrSet, removed: &mut bool) -> NodeId {
        match &mut self.nodes[id as usize] {
            Node::Leaf { sets, intersection } => {
                let Some(pos) = sets.iter().position(|s| s == lhs) else {
                    return id;
                };
                *removed = true;
                sets.swap_remove(pos);
                if sets.is_empty() {
                    self.release(id);
                    return NIL;
                }
                *intersection = intersection_of(sets);
                id
            }
            Node::Inner { attr, intersection, without, with } => {
                if !intersection.is_subset_of(lhs) {
                    return id;
                }
                let (attr, without, with) = (*attr, *without, *with);
                let (new_without, new_with) = if lhs.contains(attr) {
                    (without, self.remove_exact_from(with, lhs, removed))
                } else {
                    (self.remove_exact_from(without, lhs, removed), with)
                };
                if *removed {
                    self.update_children(id, new_without, new_with)
                } else {
                    id
                }
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// Rewrites inner node `id` after removals below it and returns the id
    /// that now stands for its subtree: `NIL` if both children emptied, the
    /// surviving child if one did, one merged leaf if two small leaves
    /// remain, else `id` itself with a refreshed intersection.
    fn update_children(&mut self, id: NodeId, new_without: NodeId, new_with: NodeId) -> NodeId {
        if new_without == NIL || new_with == NIL {
            self.release(id);
            return if new_without == NIL { new_with } else { new_without };
        }
        if let (Node::Leaf { sets: a, .. }, Node::Leaf { sets: b, .. }) =
            (&self.nodes[new_without as usize], &self.nodes[new_with as usize])
        {
            if a.len() + b.len() <= MERGE_LIMIT {
                let Node::Leaf { sets: moved, .. } =
                    std::mem::replace(&mut self.nodes[new_with as usize], Node::Free(NIL))
                else {
                    unreachable!("checked above");
                };
                self.release(new_with);
                if let Node::Leaf { sets, intersection } = &mut self.nodes[new_without as usize] {
                    sets.extend(moved);
                    *intersection = intersection_of(sets);
                }
                self.release(id);
                return new_without;
            }
        }
        let inter = self.nodes[new_without as usize]
            .intersection()
            .intersect(&self.nodes[new_with as usize].intersection());
        if let Node::Inner { intersection, without, with, .. } = &mut self.nodes[id as usize] {
            *without = new_without;
            *with = new_with;
            *intersection = inter;
        }
        id
    }

    /// Invokes `f` on every stored set (unspecified order).
    pub fn for_each<F: FnMut(AttrSet)>(&self, mut f: F) {
        if self.root != NIL {
            self.for_each_from(self.root, &mut f);
        }
    }

    fn for_each_from<F: FnMut(AttrSet)>(&self, id: NodeId, f: &mut F) {
        match &self.nodes[id as usize] {
            Node::Leaf { sets, .. } => sets.iter().copied().for_each(f),
            Node::Inner { without, with, .. } => {
                self.for_each_from(*without, f);
                self.for_each_from(*with, f);
            }
            Node::Free(_) => unreachable!("live traversal reached a free slot"),
        }
    }

    /// All stored sets as a vector (unspecified order).
    pub fn to_vec(&self) -> Vec<AttrSet> {
        let mut v = Vec::with_capacity(self.len);
        self.for_each(|s| v.push(s));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(bits: &[u16]) -> AttrSet {
        AttrSet::from_attrs(bits.iter().copied())
    }

    /// Shape of a tree that upholds every structural invariant.
    #[derive(Debug, Default)]
    struct Shape {
        leaves: usize,
        inner: usize,
    }

    /// Walks the whole tree and checks: leaves hold 1..=LEAF_CAPACITY
    /// distinct sets, inner nodes have two live children, every cached
    /// intersection is exact, sets sit on the side of each split their
    /// membership says, no attribute splits twice on a path, and the free
    /// list holds exactly the slots not reachable from the root.
    fn validate(tree: &LhsTree) -> Shape {
        fn walk(
            tree: &LhsTree,
            id: NodeId,
            path: AttrSet,
            shape: &mut Shape,
            live: &mut Vec<bool>,
        ) -> Vec<AttrSet> {
            assert!(!live[id as usize], "node {id} reached twice");
            live[id as usize] = true;
            match &tree.nodes[id as usize] {
                Node::Leaf { sets, intersection } => {
                    assert!((1..=LEAF_CAPACITY).contains(&sets.len()), "leaf holds {}", sets.len());
                    let mut sorted = sets.clone();
                    sorted.sort();
                    sorted.dedup();
                    assert_eq!(sorted.len(), sets.len(), "duplicate set in a leaf");
                    assert_eq!(*intersection, intersection_of(sets));
                    shape.leaves += 1;
                    sets.clone()
                }
                Node::Inner { attr, intersection, without, with } => {
                    assert!(!path.contains(*attr), "attribute {attr} splits twice on one path");
                    let path = path.with(*attr);
                    let a = walk(tree, *without, path, shape, live);
                    let b = walk(tree, *with, path, shape, live);
                    assert!(
                        a.iter().all(|x| !x.contains(*attr)) && b.iter().all(|x| x.contains(*attr))
                    );
                    let all: Vec<AttrSet> = a.into_iter().chain(b).collect();
                    assert_eq!(*intersection, intersection_of(&all));
                    shape.inner += 1;
                    all
                }
                Node::Free(_) => panic!("live traversal reached a free slot"),
            }
        }
        let mut shape = Shape::default();
        let mut live = vec![false; tree.nodes.len()];
        let stored = if tree.root == NIL {
            Vec::new()
        } else {
            walk(tree, tree.root, AttrSet::empty(), &mut shape, &mut live)
        };
        assert_eq!(stored.len(), tree.len());
        let mut free = tree.free;
        while free != NIL {
            assert!(!live[free as usize], "free list holds a live node");
            live[free as usize] = true;
            free = match tree.nodes[free as usize] {
                Node::Free(next) => next,
                _ => panic!("free list points at a live node"),
            };
        }
        assert!(live.iter().all(|&l| l), "arena slot neither live nor free");
        shape
    }

    /// Deterministic pseudo-random sets over `n` attributes.
    fn random_sets(count: usize, n: u64, seed: u64) -> Vec<AttrSet> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        (0..count)
            .map(|_| AttrSet::from_attrs((0..1 + next() % 6).map(|_| (next() % n) as AttrId)))
            .collect()
    }

    #[test]
    fn leaves_split_when_full_and_collapse_when_drained() {
        let mut tree = LhsTree::new();
        let sets = random_sets(2000, 70, 1);
        for (i, set) in sets.iter().enumerate() {
            tree.insert(*set);
            if i % 97 == 0 {
                validate(&tree);
            }
        }
        let grown = validate(&tree);
        assert!(grown.leaves >= tree.len() / LEAF_CAPACITY, "{grown:?} for {} sets", tree.len());
        assert_eq!(grown.inner + 1, grown.leaves);
        // Strip in slices: each removal pass must leave a valid tree.
        for (i, set) in sets.iter().enumerate() {
            tree.remove(set);
            if i % 89 == 0 {
                validate(&tree);
            }
            if tree.len() == MERGE_LIMIT {
                let shape = validate(&tree);
                assert!(shape.leaves < grown.leaves);
            }
        }
        assert!(tree.is_empty());
        let drained = validate(&tree);
        assert_eq!((drained.leaves, drained.inner), (0, 0));
        // Every slot went back to the free list and is reused.
        let slots = tree.nodes.len();
        for set in &sets[..100] {
            tree.insert(*set);
        }
        validate(&tree);
        assert!(tree.nodes.len() <= slots);
    }

    #[test]
    fn small_sibling_leaves_merge_back_into_one() {
        let mut tree = LhsTree::new();
        // Half the sets hold attribute 0: the first split takes it.
        let sets: Vec<AttrSet> =
            (1..=LEAF_CAPACITY as u16 + 1).map(|a| s(&[a % 2 * 100, a])).collect();
        for set in &sets {
            tree.insert(*set);
        }
        let split = validate(&tree);
        assert_eq!((split.leaves, split.inner), (2, 1));
        assert!(matches!(tree.nodes[tree.root as usize], Node::Inner { attr: 0, .. }));
        // Keeping three sets on each side, well inside half a bucket,
        // merges the halves.
        let removed = tree.remove_subsets_of(&AttrSet::full(LEAF_CAPACITY - 4).with(100));
        assert_eq!(removed.len(), LEAF_CAPACITY - 5);
        assert_eq!(tree.len(), 6);
        let merged = validate(&tree);
        assert_eq!((merged.leaves, merged.inner), (1, 0));
    }

    #[test]
    fn split_attribute_is_the_most_balanced_lowest_id_on_ties() {
        // Attribute 1 is in 3 of 4 sets, attributes 2 and 3 in 2 of 4.
        let sets = [s(&[1, 2]), s(&[1, 3]), s(&[1, 2, 3]), s(&[4])];
        assert_eq!(balanced_split_attr(&sets), 2);
        // Attribute 7 is in every set and never splits.
        let sets = [s(&[7, 9]), s(&[7])];
        assert_eq!(balanced_split_attr(&sets), 9);
    }

    #[test]
    fn near_subsets_have_exactly_one_attribute_outside() {
        let mut tree = LhsTree::new();
        let sets = random_sets(500, 12, 5);
        for set in &sets {
            tree.insert(*set);
        }
        for query in random_sets(50, 12, 6) {
            let mut near = Vec::new();
            tree.collect_near_subsets_of(&query, &mut near);
            near.sort();
            let mut expect: Vec<AttrSet> =
                tree.to_vec().into_iter().filter(|x| x.difference(&query).len() == 1).collect();
            expect.sort();
            assert_eq!(near, expect, "query {query:?}");
        }
    }

    /// Replays the paper's Figure 4 construction for RHS `N`:
    /// non-FDs AMB, MBG, BG, AG (attribute ids: N=0, A=1, B=2, G=3, M=4).
    #[test]
    fn figure_4_ncover_construction() {
        let amb = s(&[1, 4, 2]);
        let mbg = s(&[4, 2, 3]);
        let bg = s(&[2, 3]);
        let ag = s(&[1, 3]);

        let mut tree = LhsTree::new();
        assert!(tree.insert(amb)); // Fig 4(a)
        assert!(tree.insert(mbg)); // Fig 4(b)
                                   // BG is specialized by MBG, so Algorithm 2 discards it.
        assert!(tree.contains_superset_of(&bg));
        // AG has no specialization stored; add it (Fig 4(c)).
        assert!(!tree.contains_superset_of(&ag));
        assert!(tree.insert(ag));
        assert_eq!(tree.len(), 3);

        let mut all = tree.to_vec();
        all.sort();
        let mut expect = vec![amb, mbg, ag];
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn insert_dedupes() {
        let mut tree = LhsTree::new();
        assert!(tree.insert(s(&[1, 2])));
        assert!(!tree.insert(s(&[1, 2])));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn subset_queries_are_non_strict() {
        let mut tree = LhsTree::new();
        tree.insert(s(&[1, 2]));
        assert!(tree.contains_subset_of(&s(&[1, 2])));
        assert!(tree.contains_superset_of(&s(&[1, 2])));
        assert!(tree.contains_subset_of(&s(&[1, 2, 3])));
        assert!(!tree.contains_subset_of(&s(&[1, 3])));
        assert!(tree.contains_superset_of(&s(&[2])));
        assert!(!tree.contains_superset_of(&s(&[2, 3])));
    }

    #[test]
    fn empty_set_is_subset_of_everything() {
        let mut tree = LhsTree::new();
        tree.insert(AttrSet::empty());
        assert!(tree.contains_subset_of(&s(&[9])));
        assert!(tree.contains_subset_of(&AttrSet::empty()));
        assert!(tree.contains_superset_of(&AttrSet::empty()));
        assert!(!tree.contains_superset_of(&s(&[9])));
    }

    #[test]
    fn remove_subsets_strips_generalizations() {
        let mut tree = LhsTree::new();
        for lhs in [s(&[1]), s(&[1, 2]), s(&[3]), s(&[2, 4])] {
            tree.insert(lhs);
        }
        let mut removed = tree.remove_subsets_of(&s(&[1, 2, 3]));
        removed.sort();
        let mut expected = vec![s(&[1]), s(&[3]), s(&[1, 2])];
        expected.sort();
        assert_eq!(removed, expected);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.to_vec(), vec![s(&[2, 4])]);
    }

    #[test]
    fn remove_exact_collapses_tree() {
        let mut tree = LhsTree::new();
        tree.insert(s(&[1]));
        tree.insert(s(&[2]));
        tree.insert(s(&[1, 3]));
        assert!(tree.remove(&s(&[2])));
        assert!(!tree.remove(&s(&[2])));
        assert_eq!(tree.len(), 2);
        assert!(tree.contains_subset_of(&s(&[1])));
        assert!(tree.contains_subset_of(&s(&[1, 3])));
        assert!(tree.remove(&s(&[1])));
        assert!(tree.remove(&s(&[1, 3])));
        assert!(tree.is_empty());
        // A drained tree accepts new inserts.
        assert!(tree.insert(s(&[5])));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn collect_supersets_finds_all_specializations() {
        let mut tree = LhsTree::new();
        for lhs in [s(&[1, 2]), s(&[1, 2, 3]), s(&[2, 3]), s(&[4])] {
            tree.insert(lhs);
        }
        let mut sup = tree.collect_supersets_of(&s(&[2]));
        sup.sort();
        assert_eq!(sup.len(), 3);
        assert!(
            sup.contains(&s(&[1, 2])) && sup.contains(&s(&[1, 2, 3])) && sup.contains(&s(&[2, 3]))
        );
    }
}

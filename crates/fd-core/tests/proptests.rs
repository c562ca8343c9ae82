//! Property tests for the fd-core data structures, pitting the tree-backed
//! stores against the linear-scan [`NaiveLhsStore`] oracle and checking the
//! algebraic laws the covers rely on.

use fd_core::lhs_tree::LEAF_CAPACITY;
use fd_core::{
    invert_ncover, AttrId, AttrSet, Fd, FdSet, FdTree, InvertDelta, LhsTree, NCover, NaiveLhsStore,
    PCover,
};
use proptest::prelude::*;

/// Attribute sets over a small universe so subset relations are common.
fn attr_set(max_attr: u16) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(0..max_attr, 0..6).prop_map(AttrSet::from_attrs)
}

/// A random operation on an LHS store.
#[derive(Clone, Debug)]
enum Op {
    Insert(AttrSet),
    Remove(AttrSet),
    RemoveSubsetsOf(AttrSet),
}

fn op(max_attr: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => attr_set(max_attr).prop_map(Op::Insert),
        1 => attr_set(max_attr).prop_map(Op::Remove),
        1 => attr_set(max_attr).prop_map(Op::RemoveSubsetsOf),
    ]
}

/// An attribute of an `n`-attribute universe, three times in four from its
/// top 12 ids, so random sets over 70 attributes still collide and nest and
/// straddle the 64-bit word boundary.
fn wide_attr(n: u16) -> impl Strategy<Value = AttrId> {
    prop_oneof![3 => n.saturating_sub(12)..n, 1 => 0..n]
}

fn wide_attr_set(n: u16, max_len: usize) -> impl Strategy<Value = AttrSet> {
    prop::collection::vec(wide_attr(n), 0..max_len).prop_map(AttrSet::from_attrs)
}

/// Insert-heavy operations, so long sequences fill and split leaves.
fn wide_op(n: u16) -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => wide_attr_set(n, 8).prop_map(Op::Insert),
        1 => wide_attr_set(n, 8).prop_map(Op::Remove),
        1 => wide_attr_set(n, 8).prop_map(Op::RemoveSubsetsOf),
    ]
}

fn apply_op(tree: &mut LhsTree, naive: &mut NaiveLhsStore, o: &Op) -> Result<(), TestCaseError> {
    match o {
        Op::Insert(s) => prop_assert_eq!(tree.insert(*s), naive.insert(*s)),
        Op::Remove(s) => prop_assert_eq!(tree.remove(s), naive.remove(s)),
        Op::RemoveSubsetsOf(s) => {
            let mut a = tree.remove_subsets_of(s);
            let mut b = naive.collect_subsets_of(s);
            for x in &b {
                naive.remove(x);
            }
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
    }
    prop_assert_eq!(tree.len(), naive.len());
    Ok(())
}

/// Every query of the tree, including near subsets, against the naive store.
fn check_queries(
    tree: &LhsTree,
    naive: &NaiveLhsStore,
    queries: &[AttrSet],
) -> Result<(), TestCaseError> {
    for q in queries {
        prop_assert_eq!(tree.contains_subset_of(q), naive.contains_subset_of(q));
        prop_assert_eq!(tree.contains_superset_of(q), naive.contains_superset_of(q));
        let mut a = tree.collect_subsets_of(q);
        let mut b = naive.collect_subsets_of(q);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        let mut a = tree.collect_supersets_of(q);
        let mut b = naive.collect_supersets_of(q);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        tree.collect_near_subsets_of(q, &mut a);
        naive.collect_near_subsets_of(q, &mut b);
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
    let mut a = tree.to_vec();
    let mut b: Vec<AttrSet> = naive.iter().copied().collect();
    a.sort();
    b.sort();
    prop_assert_eq!(a, b);
    Ok(())
}

proptest! {
    /// The LhsTree agrees with the naive store on every query after any
    /// operation sequence.
    #[test]
    fn lhs_tree_matches_naive_oracle(
        ops in prop::collection::vec(op(10), 1..60),
        queries in prop::collection::vec(attr_set(10), 1..20),
    ) {
        let mut tree = LhsTree::new();
        let mut naive = NaiveLhsStore::new();
        for o in &ops {
            match o {
                Op::Insert(s) => {
                    prop_assert_eq!(tree.insert(*s), naive.insert(*s));
                }
                Op::Remove(s) => {
                    prop_assert_eq!(tree.remove(s), naive.remove(s));
                }
                Op::RemoveSubsetsOf(s) => {
                    let mut a = tree.remove_subsets_of(s);
                    let mut b = naive.collect_subsets_of(s);
                    for x in &b {
                        naive.remove(x);
                    }
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b);
                }
            }
            prop_assert_eq!(tree.len(), naive.len());
        }
        for q in &queries {
            prop_assert_eq!(tree.contains_subset_of(q), naive.contains_subset_of(q));
            prop_assert_eq!(tree.contains_superset_of(q), naive.contains_superset_of(q));
            let mut a = tree.collect_subsets_of(q);
            let mut b = naive.collect_subsets_of(q);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
            let mut a = tree.collect_supersets_of(q);
            let mut b = naive.collect_supersets_of(q);
            a.sort();
            b.sort();
            prop_assert_eq!(a, b);
        }
        let mut a = tree.to_vec();
        let mut b: Vec<AttrSet> = naive.iter().copied().collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    /// The same oracle comparison at the scale where leaves split: up to 600
    /// operations, over universes of 10 and 70 attributes (sets cross the
    /// 64-bit word), then a drain that removes every set one at a time, so
    /// every split tree also collapses back to nothing. Near-subset queries
    /// are checked too.
    #[test]
    fn lhs_tree_matches_naive_oracle_at_split_scale(
        case in prop_oneof![Just(10u16), Just(70u16)].prop_flat_map(|n| {
            (
                Just(n),
                prop::collection::vec(wide_op(n), 1..600),
                prop::collection::vec(wide_attr_set(n, 12), 1..20),
            )
        }),
    ) {
        let (n, ops, queries) = case;
        let mut tree = LhsTree::new();
        let mut naive = NaiveLhsStore::new();
        let mut max_len = 0;
        for o in &ops {
            apply_op(&mut tree, &mut naive, o)?;
            max_len = max_len.max(naive.len());
        }
        if ops.len() >= 200 {
            prop_assert!(max_len > LEAF_CAPACITY, "n={} ops={} never filled a leaf", n, ops.len());
        }
        check_queries(&tree, &naive, &queries)?;
        let mut stored: Vec<AttrSet> = naive.iter().copied().collect();
        let half = stored.len() / 2;
        for (i, s) in stored.drain(..).rev().enumerate() {
            prop_assert!(tree.remove(&s));
            prop_assert!(naive.remove(&s));
            prop_assert_eq!(tree.len(), naive.len());
            if i == half {
                check_queries(&tree, &naive, &queries)?;
            }
        }
        prop_assert!(tree.is_empty());
        prop_assert!(tree.to_vec().is_empty());
        prop_assert!(tree.insert(queries[0]));
        prop_assert!(tree.contains_subset_of(&queries[0]));
    }

    /// The FD-tree's generalization queries agree with a brute-force scan.
    #[test]
    fn fd_tree_generalizations_match_brute_force(
        entries in prop::collection::vec((attr_set(8), 0..8u16), 1..40),
        queries in prop::collection::vec((attr_set(8), 0..8u16), 1..15),
    ) {
        let mut tree = FdTree::new(8);
        let mut plain: Vec<(AttrSet, AttrId)> = Vec::new();
        for (lhs, rhs) in &entries {
            if tree.add(*lhs, *rhs) {
                plain.push((*lhs, *rhs));
            }
        }
        prop_assert_eq!(tree.len(), plain.len());
        for (lhs, rhs) in &queries {
            let expect = plain.iter().any(|(l, r)| r == rhs && l.is_subset_of(lhs));
            prop_assert_eq!(tree.contains_generalization(lhs, *rhs), expect);
        }
        // Removing generalizations leaves exactly the non-generalizations.
        if let Some((lhs, rhs)) = queries.first() {
            let mut removed = tree.remove_generalizations(lhs, *rhs);
            removed.sort();
            let mut expect: Vec<AttrSet> = plain
                .iter()
                .filter(|(l, r)| r == rhs && l.is_subset_of(lhs))
                .map(|(l, _)| *l)
                .collect();
            expect.sort();
            prop_assert_eq!(removed, expect);
            prop_assert!(!tree.contains_generalization(lhs, *rhs));
        }
    }

    /// NCover invariant: stored non-FDs are pairwise incomparable (maximal),
    /// and `invalidates` answers exactly "is some stored superset present".
    #[test]
    fn ncover_stores_an_antichain(
        agrees in prop::collection::vec(attr_set(6), 1..30),
    ) {
        let mut nc = NCover::new(6);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let fds = nc.to_fds();
        prop_assert_eq!(fds.len(), nc.len());
        for x in &fds {
            for y in &fds {
                if x != y && x.rhs == y.rhs {
                    prop_assert!(
                        !x.lhs.is_subset_of(&y.lhs),
                        "{:?} and {:?} are comparable", x, y
                    );
                }
            }
        }
        // Every recorded agree set must be absorbed by some stored non-FD.
        for a in &agrees {
            for rhs in 0..6u16 {
                if !a.contains(rhs) {
                    prop_assert!(nc.invalidates(&Fd::new(*a, rhs)));
                }
            }
        }
    }

    /// Inversion is exactly the complement of the negative cover: a
    /// dependency is covered by the Pcover iff no stored non-FD invalidates
    /// it, checked exhaustively over the 5-attribute lattice.
    #[test]
    fn inversion_complements_ncover(
        agrees in prop::collection::vec(attr_set(5), 0..20),
    ) {
        let mut nc = NCover::new(5);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let pc = invert_ncover(&nc);
        let fds = pc.to_fdset();
        prop_assert!(fds.is_minimal_cover());
        for rhs in 0..5u16 {
            for mask in 0u32..32 {
                let lhs = AttrSet::from_attrs((0..5u16).filter(|a| mask & (1 << a) != 0));
                if lhs.contains(rhs) {
                    continue;
                }
                let fd = Fd::new(lhs, rhs);
                prop_assert_eq!(pc.covers(&fd), !nc.invalidates(&fd), "disagree on {:?}", fd);
            }
        }
    }

    /// Incremental inversion (non-FD at a time) produces the same Pcover as
    /// batch inversion regardless of arrival order.
    #[test]
    fn inversion_is_order_independent(
        agrees in prop::collection::vec(attr_set(5), 1..12),
        seed in 0u64..1000,
    ) {
        let mut nc = NCover::new(5);
        for a in &agrees {
            nc.add_agree_set(*a);
        }
        let baseline = invert_ncover(&nc).to_fdset();

        // Shuffle the maximal non-FDs deterministically and invert one by one.
        let mut fds = nc.to_fds();
        let n = fds.len();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            fds.swap(i, j);
        }
        let mut pc = fd_core::PCover::initialized(5);
        for fd in fds {
            pc.invert(fd);
        }
        prop_assert_eq!(pc.to_fdset(), baseline);
    }

    /// Bitset algebra laws on random sets.
    #[test]
    fn attrset_algebra_laws(a in attr_set(200), b in attr_set(200), c in attr_set(200)) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.intersect(&b), b.intersect(&a));
        prop_assert_eq!(a.union(&b).intersect(&c), a.intersect(&c).union(&b.intersect(&c)));
        prop_assert!(a.intersect(&b).is_subset_of(&a));
        prop_assert!(a.is_subset_of(&a.union(&b)));
        prop_assert_eq!(a.difference(&b).union(&a.intersect(&b)), a);
        prop_assert!(a.difference(&b).is_disjoint(&b));
        prop_assert_eq!(a.union(&b).len() + a.intersect(&b).len(), a.len() + b.len());
        // Iteration round-trips.
        prop_assert_eq!(AttrSet::from_attrs(a.iter()), a);
    }
}

/// A random small FD set over `max_attr` attributes.
fn fd_set(max_attr: u16) -> impl Strategy<Value = FdSet> {
    prop::collection::vec((attr_set(max_attr), 0..max_attr), 0..12).prop_map(|v| {
        v.into_iter()
            .map(|(lhs, rhs)| Fd::new(lhs.without(rhs), rhs))
            .collect()
    })
}

proptest! {
    /// Closure laws: extensive, monotone, idempotent; `implies` is
    /// consistent with direct closure membership.
    #[test]
    fn closure_laws(fds in fd_set(6), x in attr_set(6), y in attr_set(6)) {
        use fd_core::closure::{closure, implies};
        let cx = closure(&x, &fds);
        prop_assert!(x.is_subset_of(&cx), "extensive");
        prop_assert_eq!(closure(&cx, &fds), cx, "idempotent");
        if x.is_subset_of(&y) {
            prop_assert!(cx.is_subset_of(&closure(&y, &fds)), "monotone");
        }
        for rhs in 0..6u16 {
            prop_assert_eq!(
                implies(&fds, &Fd::new(x, rhs)),
                x.contains(rhs) || cx.contains(rhs)
            );
        }
    }

    /// Non-redundant covers stay logically equivalent to the original.
    #[test]
    fn non_redundant_cover_preserves_semantics(fds in fd_set(6)) {
        use fd_core::closure::{equivalent, non_redundant_cover};
        let reduced = non_redundant_cover(&fds);
        prop_assert!(reduced.len() <= fds.len());
        prop_assert!(equivalent(&fds, &reduced));
    }

    /// Candidate keys: every reported key closes to the full schema, keys
    /// are pairwise incomparable, and every attribute set that closes to the
    /// full schema contains some reported key (checked exhaustively on 5
    /// attributes).
    #[test]
    fn candidate_keys_are_sound_and_complete(fds in fd_set(5)) {
        use fd_core::closure::{candidate_keys, closure};
        let all = AttrSet::full(5);
        let keys = candidate_keys(5, &fds);
        for k in &keys {
            prop_assert_eq!(closure(k, &fds), all, "key must close to R");
            for other in &keys {
                if k != other {
                    prop_assert!(!k.is_subset_of(other), "keys form an antichain");
                }
            }
        }
        for mask in 0u32..32 {
            let x = AttrSet::from_attrs((0..5u16).filter(|a| mask & (1 << a) != 0));
            if closure(&x, &fds) == all {
                prop_assert!(
                    keys.iter().any(|k| k.is_subset_of(&x)),
                    "superkey {:?} contains no reported key {:?}", x, keys
                );
            }
        }
    }

    /// The FdIndex's transitive queries agree with closures.
    #[test]
    fn fd_index_matches_closure(fds in fd_set(6), from in attr_set(6)) {
        use fd_core::closure::closure;
        use fd_core::FdIndex;
        let idx = FdIndex::new(6, fds.clone());
        prop_assert_eq!(
            idx.determined_by(&from),
            closure(&from, &fds).difference(&from)
        );
    }
}

proptest! {
    /// Per-RHS sharded inversion is indistinguishable from the sequential
    /// sort-then-drain loop, at every thread count, in both the final cover
    /// and the reported churn.
    #[test]
    fn parallel_inversion_matches_sequential(
        agrees in prop::collection::vec(attr_set(8), 1..40),
    ) {
        let mut nc = NCover::new(8);
        for agree in &agrees {
            nc.add_agree_set(*agree);
        }
        let baseline = fd_core::invert_ncover(&nc);
        // Churn oracle: the single-FD invert loop in sorted order.
        let mut pc = fd_core::PCover::initialized(8);
        let mut non_fds = nc.to_fds();
        non_fds.sort_by_key(|fd| std::cmp::Reverse(fd.lhs.len()));
        let mut expect_delta = fd_core::InvertDelta::default();
        for fd in non_fds {
            expect_delta += pc.invert(fd);
        }
        prop_assert_eq!(pc.to_fdset(), baseline.to_fdset());
        for threads in [1usize, 2, 3, 4, 7, 8] {
            let parallel = fd_core::invert_ncover_parallel(&nc, threads);
            prop_assert_eq!(parallel.to_fdset(), baseline.to_fdset(), "threads={}", threads);
            prop_assert_eq!(parallel.len(), baseline.len(), "threads={}", threads);
            let mut pc = fd_core::PCover::initialized(8);
            let mut batch = nc.to_fds();
            let delta = pc.invert_batch(&mut batch, threads);
            prop_assert_eq!(delta, expect_delta, "threads={}", threads);
            prop_assert!(batch.is_empty(), "invert_batch drains its input");
        }
    }
}

/// Algorithm 3 as the paper writes it, over the linear-scan store: strip
/// every generalization of the non-FD, then try each one-attribute
/// specialization of each and keep it unless a stored set generalizes it,
/// repeating until nothing is stripped.
fn oracle_invert(store: &mut NaiveLhsStore, n: u16, non_fd: &Fd) -> InvertDelta {
    let mut delta = InvertDelta::default();
    loop {
        let generals = store.collect_subsets_of(&non_fd.lhs);
        if generals.is_empty() {
            return delta;
        }
        for g in &generals {
            store.remove(g);
        }
        delta.removed += generals.len();
        for g in &generals {
            for a in 0..n {
                if g.contains(a) || a == non_fd.rhs || non_fd.lhs.contains(a) {
                    continue;
                }
                let candidate = g.with(a);
                if !store.contains_subset_of(&candidate) {
                    store.insert(candidate);
                    delta.added += 1;
                }
            }
        }
    }
}

/// A non-FD over `n` attributes whose LHS is everything but a few columns
/// drawn from a pool of at most 12 (spread across the 64-bit word), like an
/// agree set on wide data. Candidates then stay subsets of the pool, so
/// covers stay small enough for the oracle however many of these are
/// inverted, while the two favoured RHSs still grow covers past a leaf.
fn pooled_non_fd(n: u16) -> impl Strategy<Value = Fd> {
    let mut pool: Vec<AttrId> = vec![0, 1, 2, 3, n / 3, n / 2, 2 * n / 3];
    pool.extend(n.saturating_sub(5)..n);
    pool.sort_unstable();
    pool.dedup();
    let len = pool.len();
    let rhs = prop_oneof![3 => 0..2usize, 1 => 0..len];
    (prop::collection::vec(0..len, 3..10), rhs).prop_map(move |(outside, rhs)| {
        let rhs = pool[rhs];
        let lhs = AttrSet::full(n as usize)
            .difference(&AttrSet::from_attrs(outside.iter().map(|&i| pool[i])));
        Fd::new(lhs.without(rhs), rhs)
    })
}

/// A non-FD with a random LHS of density ~3/4 over all `n` attributes.
fn dense_non_fd(n: u16) -> impl Strategy<Value = Fd> {
    (prop::collection::vec(0..4u8, n as usize), 0..n).prop_map(move |(keep, rhs)| {
        let lhs = AttrSet::from_attrs((0..n).filter(|&a| keep[a as usize] != 0));
        Fd::new(lhs.without(rhs), rhs)
    })
}

/// One to three batches of non-FDs over a universe of 5 to 70 attributes.
fn non_fd_batches() -> impl Strategy<Value = (u16, Vec<Vec<Fd>>)> {
    (5u16..=70).prop_flat_map(|n| {
        let non_fd = prop_oneof![40 => pooled_non_fd(n), 1 => dense_non_fd(n)];
        (Just(n), prop::collection::vec(prop::collection::vec(non_fd, 1..300), 1..4))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Batch inversion makes Algorithm 3's decisions exactly: after every
    /// batch of a multi-batch stream, at 1, 2 and 3 threads, each RHS's
    /// cover equals the literal per-candidate loop's and so does the batch's
    /// `InvertDelta`.
    #[test]
    fn invert_batch_matches_literal_algorithm_3(case in non_fd_batches()) {
        let (n, batches) = case;
        for threads in [1usize, 2, 3] {
            let mut pcover = PCover::initialized(n as usize);
            let mut oracle: Vec<NaiveLhsStore> = (0..n)
                .map(|_| {
                    let mut store = NaiveLhsStore::new();
                    store.insert(AttrSet::empty());
                    store
                })
                .collect();
            for (i, batch) in batches.iter().enumerate() {
                let mut sorted = batch.clone();
                sorted.sort_by_key(|fd| std::cmp::Reverse(fd.lhs.len()));
                let mut expect = InvertDelta::default();
                for fd in &sorted {
                    expect += oracle_invert(&mut oracle[fd.rhs as usize], n, fd);
                }
                let mut work = batch.clone();
                let delta = pcover.invert_batch(&mut work, threads);
                prop_assert_eq!(delta, expect, "n={} threads={} batch {}", n, threads, i);
                let fds = pcover.to_fdset();
                for rhs in 0..n {
                    let mut got: Vec<AttrSet> = fds.with_rhs(rhs).map(|fd| fd.lhs).collect();
                    let mut want: Vec<AttrSet> = oracle[rhs as usize].iter().copied().collect();
                    got.sort();
                    want.sort();
                    prop_assert_eq!(got, want, "n={} threads={} batch {} rhs {}", n, threads, i, rhs);
                }
            }
        }
    }
}

/// A deterministic regression: an FdSet built from a PCover equals the set
/// rebuilt from its own iterator.
#[test]
fn fdset_roundtrip_through_iterator() {
    let mut nc = NCover::new(4);
    nc.add_agree_set(AttrSet::from_attrs([0u16, 1]));
    nc.add_agree_set(AttrSet::from_attrs([2u16]));
    let fds = invert_ncover(&nc).to_fdset();
    let rebuilt: FdSet = fds.iter().copied().collect();
    assert_eq!(fds, rebuilt);
}

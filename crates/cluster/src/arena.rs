//! Flat arena storage for the cluster engines' hot state.
//!
//! At the paper's §4.2 "simulation at scale" sizes (a million disks), the
//! old `Vec<Vec<u32>>` per-node object lists are a pointer-chasing sprawl:
//! one heap allocation per node, no locality across nodes, and realloc
//! churn on every rebuild. [`NodeLists`] replaces them with chunked
//! per-node lists over **one** flat `u32` pool — the mutable cousin of a
//! CSR adjacency structure (pool + per-node offset chains instead of
//! prefix offsets, because membership changes during the run).
//!
//! The contract that matters for determinism: a node's list iterates in
//! exact **insertion order**, and draining re-yields that order — the
//! same order the old `Vec` push/take produced. Event scheduling order,
//! and therefore every downstream RNG draw, hangs off this.
//!
//! `NodeSet` is the companion index over node *membership* (the engine
//! keeps reachability in it): a Fenwick tree of member counts, so the
//! k-th member outside a few excluded node ranges — a rebuild target —
//! is found in O(ranges · log n) instead of a scan of every node.

/// Entries per chunk. 32 × `u32` = 128 B — two cache lines, so a node
/// with a handful of objects touches one or two lines instead of a
/// scattered `Vec` header + heap block.
const CHUNK: usize = 32;
/// Null chunk index.
const NONE: u32 = u32::MAX;

/// Chunked per-node object lists over one flat `u32` pool.
///
/// Supports exactly the operations the availability engine's hot path
/// needs: append (`push`), ordered drain (`drain_into`), and ordered
/// copy-out (`extend_into`). Freed chunks go on a free list and are
/// reused, so steady-state mutation allocates nothing.
#[derive(Debug, Clone)]
pub struct NodeLists {
    /// The flat pool, in `CHUNK`-sized slots.
    pool: Vec<u32>,
    /// Per-chunk: index of the next chunk in its chain (`NONE` = tail).
    next: Vec<u32>,
    /// Per-node: first chunk of its chain (`NONE` = empty list).
    heads: Vec<u32>,
    /// Per-node: last chunk of its chain (`NONE` = empty list).
    tails: Vec<u32>,
    /// Per-node: entries used in the tail chunk.
    tail_len: Vec<u32>,
    /// Per-node: total entries.
    lens: Vec<u32>,
    /// Recycled chunk indices.
    free: Vec<u32>,
}

impl NodeLists {
    /// Empty lists for `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Self {
        Self::with_capacity(n_nodes, 0)
    }

    /// Empty lists with pool room for `entries` total entries, so bulk
    /// construction does not regrow the pool.
    pub fn with_capacity(n_nodes: usize, entries: usize) -> Self {
        let chunks = entries.div_ceil(CHUNK) + n_nodes;
        NodeLists {
            pool: Vec::with_capacity(chunks * CHUNK),
            next: Vec::with_capacity(chunks),
            heads: vec![NONE; n_nodes],
            tails: vec![NONE; n_nodes],
            tail_len: vec![0; n_nodes],
            lens: vec![0; n_nodes],
            free: Vec::new(),
        }
    }

    fn alloc_chunk(&mut self) -> u32 {
        if let Some(c) = self.free.pop() {
            self.next[c as usize] = NONE;
            return c;
        }
        let c = self.next.len() as u32;
        self.pool.resize(self.pool.len() + CHUNK, 0);
        self.next.push(NONE);
        c
    }

    /// Appends `value` to `node`'s list.
    pub fn push(&mut self, node: usize, value: u32) {
        let tail = self.tails[node];
        let tail = if tail == NONE {
            let c = self.alloc_chunk();
            self.heads[node] = c;
            self.tails[node] = c;
            self.tail_len[node] = 0;
            c
        } else if self.tail_len[node] as usize == CHUNK {
            let c = self.alloc_chunk();
            self.next[tail as usize] = c;
            self.tails[node] = c;
            self.tail_len[node] = 0;
            c
        } else {
            tail
        };
        self.pool[tail as usize * CHUNK + self.tail_len[node] as usize] = value;
        self.tail_len[node] += 1;
        self.lens[node] += 1;
    }

    /// Number of entries in `node`'s list.
    pub fn len(&self, node: usize) -> usize {
        self.lens[node] as usize
    }

    /// True when `node`'s list is empty.
    pub fn is_empty(&self, node: usize) -> bool {
        self.lens[node] == 0
    }

    /// Appends `node`'s entries to `out` in insertion order (the list is
    /// unchanged). `out` is *not* cleared.
    pub fn extend_into(&self, node: usize, out: &mut Vec<u32>) {
        let mut c = self.heads[node];
        while c != NONE {
            let n = if c == self.tails[node] {
                self.tail_len[node] as usize
            } else {
                CHUNK
            };
            let base = c as usize * CHUNK;
            out.extend_from_slice(&self.pool[base..base + n]);
            c = self.next[c as usize];
        }
    }

    /// Moves `node`'s entries to `out` in insertion order, leaving the
    /// list empty and recycling its chunks. `out` is *not* cleared.
    pub fn drain_into(&mut self, node: usize, out: &mut Vec<u32>) {
        let mut c = self.heads[node];
        while c != NONE {
            let n = if c == self.tails[node] {
                self.tail_len[node] as usize
            } else {
                CHUNK
            };
            let base = c as usize * CHUNK;
            out.extend_from_slice(&self.pool[base..base + n]);
            self.free.push(c);
            c = self.next[c as usize];
        }
        self.heads[node] = NONE;
        self.tails[node] = NONE;
        self.tail_len[node] = 0;
        self.lens[node] = 0;
    }
}

/// A set of node ids with O(log n) rank and select: per-node membership
/// plus a Fenwick (binary indexed) tree of `u32` member counts.
///
/// Excluded ranges passed to [`count_outside`](Self::count_outside) and
/// [`select_outside`](Self::select_outside) are half-open `(lo, hi)` node
/// ranges, sorted ascending and pairwise disjoint.
#[derive(Debug)]
pub(crate) struct NodeSet {
    /// Per-node membership.
    member: Vec<bool>,
    /// 1-based Fenwick tree: `tree[i]` counts the members among nodes
    /// `i - lowbit(i) .. i` (0-based); `tree[0]` is unused.
    tree: Vec<u32>,
    /// Total members.
    len: usize,
}

/// Lowest set bit of `i` (the span a Fenwick cell covers).
#[inline]
fn lowbit(i: usize) -> usize {
    i & i.wrapping_neg()
}

impl NodeSet {
    /// The set holding all of nodes `0..n`.
    pub fn full(n: usize) -> Self {
        // Every node a member: each cell counts its whole span.
        NodeSet {
            member: vec![true; n],
            tree: (0..=n).map(|i| lowbit(i) as u32).collect(),
            len: n,
        }
    }

    /// True when `node` is a member.
    #[inline]
    pub fn contains(&self, node: usize) -> bool {
        self.member[node]
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Adds (`member = true`) or removes `node`; a no-op when its
    /// membership is already `member`.
    pub fn set(&mut self, node: usize, member: bool) {
        if self.member[node] == member {
            return;
        }
        self.member[node] = member;
        let mut i = node + 1;
        if member {
            self.len += 1;
            while i < self.tree.len() {
                self.tree[i] += 1;
                i += lowbit(i);
            }
        } else {
            self.len -= 1;
            while i < self.tree.len() {
                self.tree[i] -= 1;
                i += lowbit(i);
            }
        }
    }

    /// Members among nodes `0..node`.
    pub fn rank(&self, node: usize) -> usize {
        let mut i = node;
        let mut count = 0u32;
        while i > 0 {
            count += self.tree[i];
            i &= i - 1;
        }
        count as usize
    }

    /// The `k`-th member (0-based) in ascending node order.
    ///
    /// # Panics
    /// If `k >= self.len()`.
    pub fn select(&self, k: usize) -> usize {
        assert!(
            k < self.len(),
            "select({k}) on a set of {} members",
            self.len()
        );
        // Binary descent: the largest `pos` with `rank(pos) <= k`, so
        // node `pos` is the k-th member.
        let mut k = k as u32;
        let mut pos = 0;
        let mut step = (self.tree.len() - 1).checked_ilog2().map_or(0, |b| 1 << b);
        while step > 0 {
            let next = pos + step;
            if next < self.tree.len() && self.tree[next] <= k {
                pos = next;
                k -= self.tree[next];
            }
            step >>= 1;
        }
        pos
    }

    /// Members outside every range in `excluded`.
    pub fn count_outside(&self, excluded: &[(usize, usize)]) -> usize {
        excluded.iter().fold(self.len(), |count, &(lo, hi)| {
            count - (self.rank(hi) - self.rank(lo))
        })
    }

    /// The `k`-th member (0-based, ascending) outside every range in
    /// `excluded`.
    ///
    /// # Panics
    /// If `k >= self.count_outside(excluded)`.
    pub fn select_outside(&self, mut k: usize, excluded: &[(usize, usize)]) -> usize {
        // Walk the ranges in order, turning `k` into an index over all
        // members: every excluded member before the answer shifts it by one.
        for &(lo, hi) in excluded {
            let before = self.rank(lo);
            if k < before {
                break;
            }
            k += self.rank(hi) - before;
        }
        self.select(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(l: &NodeLists, node: usize) -> Vec<u32> {
        let mut out = Vec::new();
        l.extend_into(node, &mut out);
        out
    }

    #[test]
    fn push_preserves_insertion_order_across_chunks() {
        let mut l = NodeLists::new(2);
        let many: Vec<u32> = (0..(3 * CHUNK as u32 + 7)).collect();
        for &v in &many {
            l.push(0, v);
        }
        l.push(1, 99);
        assert_eq!(collect(&l, 0), many);
        assert_eq!(collect(&l, 1), vec![99]);
        assert_eq!(l.len(0), many.len());
        assert_eq!(l.len(1), 1);
    }

    #[test]
    fn drain_yields_order_and_empties() {
        let mut l = NodeLists::new(1);
        for v in 0..100u32 {
            l.push(0, v);
        }
        let mut out = vec![7u32]; // drain appends, never clears
        l.drain_into(0, &mut out);
        assert_eq!(out[0], 7);
        assert_eq!(&out[1..], (0..100u32).collect::<Vec<_>>().as_slice());
        assert!(l.is_empty(0));
        assert_eq!(collect(&l, 0), Vec::<u32>::new());
    }

    #[test]
    fn chunks_are_recycled_after_drain() {
        let mut l = NodeLists::new(2);
        for v in 0..(2 * CHUNK as u32) {
            l.push(0, v);
        }
        let pool_size = l.pool.len();
        let mut sink = Vec::new();
        l.drain_into(0, &mut sink);
        // Refilling a different node reuses the freed chunks: no growth.
        for v in 0..(2 * CHUNK as u32) {
            l.push(1, v);
        }
        assert_eq!(l.pool.len(), pool_size, "freed chunks must be reused");
        assert_eq!(collect(&l, 1), (0..(2 * CHUNK as u32)).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_drain_matches_vec_of_vecs() {
        // Deterministic op mix over a few nodes, mirrored against the
        // old representation.
        let nodes = 5usize;
        let mut arena = NodeLists::new(nodes);
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        let mut x = 0x9e37u32;
        for step in 0..10_000u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let node = (x >> 8) as usize % nodes;
            if step % 97 == 96 {
                let mut got = Vec::new();
                arena.drain_into(node, &mut got);
                let want = std::mem::take(&mut model[node]);
                assert_eq!(got, want, "drain order diverged at step {step}");
            } else {
                arena.push(node, x);
                model[node].push(x);
            }
        }
        for (node, want) in model.iter().enumerate() {
            assert_eq!(&collect(&arena, node), want);
            assert_eq!(arena.len(node), want.len());
        }
    }

    /// Checks every rank, select and membership query of `set` against
    /// naive counting over `bits`.
    fn assert_matches_bits(set: &NodeSet, bits: &[bool]) {
        let members: Vec<usize> = (0..bits.len()).filter(|&i| bits[i]).collect();
        assert_eq!(set.len(), members.len());
        for node in 0..=bits.len() {
            let want = members.iter().filter(|&&m| m < node).count();
            assert_eq!(set.rank(node), want, "rank({node})");
        }
        for (k, &m) in members.iter().enumerate() {
            assert_eq!(set.select(k), m, "select({k})");
        }
        for (node, &b) in bits.iter().enumerate() {
            assert_eq!(set.contains(node), b);
        }
    }

    #[test]
    fn node_set_rank_and_select_match_naive_counting_after_flips() {
        for n in [1usize, 2, 3, 5, 7, 8, 13, 16, 33, 100] {
            let mut set = NodeSet::full(n);
            let mut bits = vec![true; n];
            assert_matches_bits(&set, &bits);
            let mut x = 0x2545_f491u32 ^ n as u32;
            for _ in 0..(6 * n) {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let node = (x >> 8) as usize % n;
                let member = x >> 31 == 1;
                set.set(node, member);
                bits[node] = member;
                assert_matches_bits(&set, &bits);
            }
        }
    }

    #[test]
    fn empty_node_set_counts_zero() {
        let set = NodeSet::full(0);
        assert_eq!(set.len(), 0);
        assert_eq!(set.rank(0), 0);
        assert_eq!(set.count_outside(&[]), 0);
        let mut one = NodeSet::full(1);
        one.set(0, false);
        assert_eq!(one.len(), 0);
        assert_eq!(one.rank(1), 0);
    }

    #[test]
    #[should_panic(expected = "select(0) on a set of 0 members")]
    fn select_past_the_end_panics() {
        NodeSet::full(0).select(0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u8, u32),
        Drain(u8),
        Copy(u8),
    }

    fn arb_op(nodes: u8) -> impl Strategy<Value = Op> {
        prop_oneof![
            (0..nodes, any::<u32>()).prop_map(|(n, v)| Op::Push(n, v)),
            (0..nodes, any::<u32>()).prop_map(|(n, v)| Op::Push(n, v)),
            (0..nodes, any::<u32>()).prop_map(|(n, v)| Op::Push(n, v)),
            (0..nodes, any::<u32>()).prop_map(|(n, v)| Op::Push(n, v)),
            (0..nodes).prop_map(Op::Drain),
            (0..nodes).prop_map(Op::Copy),
        ]
    }

    proptest! {
        /// Arbitrary op sequences: the arena agrees with `Vec<Vec<u32>>`
        /// on contents *and order* after every drain/copy.
        #[test]
        fn agrees_with_vec_of_vecs(ops in proptest::collection::vec(arb_op(6), 0..400)) {
            let nodes = 6usize;
            let mut arena = NodeLists::new(nodes);
            let mut model: Vec<Vec<u32>> = vec![Vec::new(); nodes];
            for op in ops {
                match op {
                    Op::Push(n, v) => {
                        arena.push(n as usize, v);
                        model[n as usize].push(v);
                    }
                    Op::Drain(n) => {
                        let mut got = Vec::new();
                        arena.drain_into(n as usize, &mut got);
                        let want = std::mem::take(&mut model[n as usize]);
                        prop_assert_eq!(got, want);
                    }
                    Op::Copy(n) => {
                        let mut got = Vec::new();
                        arena.extend_into(n as usize, &mut got);
                        prop_assert_eq!(&got, &model[n as usize]);
                        prop_assert_eq!(arena.len(n as usize), model[n as usize].len());
                    }
                }
            }
            for (n, want) in model.iter().enumerate() {
                let mut got = Vec::new();
                arena.extend_into(n, &mut got);
                prop_assert_eq!(&got, want);
            }
        }

        /// After arbitrary flips, counting and selecting outside arbitrary
        /// sorted disjoint ranges agrees with filtering the members.
        #[test]
        fn node_set_outside_agrees_with_filter(
            n in 1usize..300,
            flips in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..200),
            cuts in proptest::collection::vec((any::<u16>(), any::<u16>()), 0..6),
        ) {
            let mut set = NodeSet::full(n);
            let mut bits = vec![true; n];
            for (node, member) in flips {
                let node = node as usize % n;
                set.set(node, member);
                bits[node] = member;
            }
            // Normalize the raw cuts into sorted, disjoint, non-empty ranges.
            let mut raw: Vec<(usize, usize)> = cuts
                .iter()
                .map(|&(a, b)| {
                    let (a, b) = (a as usize % (n + 1), b as usize % (n + 1));
                    (a.min(b), a.max(b))
                })
                .collect();
            raw.sort_unstable();
            let mut excluded: Vec<(usize, usize)> = Vec::new();
            for (lo, hi) in raw {
                if lo < hi && excluded.last().is_none_or(|&(_, prev_hi)| lo >= prev_hi) {
                    excluded.push((lo, hi));
                }
            }
            let want: Vec<usize> = (0..n)
                .filter(|&i| bits[i] && !excluded.iter().any(|&(lo, hi)| (lo..hi).contains(&i)))
                .collect();
            prop_assert_eq!(set.count_outside(&excluded), want.len());
            for (k, &node) in want.iter().enumerate() {
                prop_assert_eq!(set.select_outside(k, &excluded), node);
            }
        }
    }
}

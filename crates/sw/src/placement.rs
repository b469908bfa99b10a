//! Replica placement policies.
//!
//! Figure 1 of the paper varies exactly this knob: Random (R) vs.
//! RoundRobin (RR) placement of `n` replicas across `N` nodes, and shows
//! that availability depends on it. Copyset placement (Cidon et al.) is
//! included as the natural third point on the axis: it minimizes the
//! number of distinct replica sets, trading scatter width for a lower
//! probability that *some* customer loses a quorum.

use serde::{Deserialize, Serialize};
use wt_des::rng::Stream;

/// A placement policy choice (serializable configuration surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Each object's replicas land on `n` distinct uniformly random nodes.
    Random,
    /// Object `u` occupies nodes `u mod N, u+1 mod N, …, u+n−1 mod N`.
    RoundRobin,
    /// Objects are assigned to one of a small set of pre-built copysets.
    Copyset {
        /// Scatter width: how many distinct other nodes each node shares a
        /// copyset with.
        scatter_width: usize,
    },
    /// Random placement constrained to put each replica in a distinct
    /// rack (while racks ≥ replicas; excess replicas wrap around) —
    /// the standard defense against correlated rack-level failures.
    RackAware {
        /// Nodes per rack (node `i` lives in rack `i / nodes_per_rack`).
        nodes_per_rack: usize,
    },
}

impl Placement {
    /// Short label used in experiment output ("R", "RR", "CS").
    pub fn label(&self) -> &'static str {
        match self {
            Placement::Random => "R",
            Placement::RoundRobin => "RR",
            Placement::Copyset { .. } => "CS",
            Placement::RackAware { .. } => "RA",
        }
    }
}

/// A configured placer: policy × cluster size × replication factor.
///
/// Construction is deterministic given the RNG stream, so a scenario's
/// placement is reproducible and shared across what-if arms (common random
/// numbers).
#[derive(Debug, Clone)]
pub struct Placer {
    policy: Placement,
    n_nodes: usize,
    n_replicas: usize,
    /// Pre-built copysets (empty for other policies).
    copysets: Vec<Vec<usize>>,
    rng: Stream,
    /// Reusable rack-order buffer for `RackAware` placement.
    rack_scratch: Vec<usize>,
}

impl Placer {
    /// Builds a placer for `n_replicas`-way placement over `n_nodes` nodes.
    /// Panics on a placement [`check`](Self::check) rejects.
    pub fn new(policy: Placement, n_nodes: usize, n_replicas: usize, mut rng: Stream) -> Self {
        if let Err(e) = Self::check(policy, n_nodes, n_replicas) {
            panic!("{e}");
        }
        let copysets = if let Placement::Copyset { scatter_width } = policy {
            build_copysets(n_nodes, n_replicas, scatter_width, &mut rng)
        } else {
            Vec::new()
        };
        Placer {
            policy,
            n_nodes,
            n_replicas,
            copysets,
            rng,
            rack_scratch: Vec::new(),
        }
    }

    /// Checks what [`new`](Self::new) asserts: at least one replica, no
    /// more replicas than nodes, and whole racks under `RackAware`.
    pub fn check(policy: Placement, n_nodes: usize, n_replicas: usize) -> Result<(), String> {
        if n_replicas == 0 {
            return Err("need at least one replica".into());
        }
        if n_replicas > n_nodes {
            return Err(format!(
                "cannot place {n_replicas} distinct replicas on {n_nodes} nodes"
            ));
        }
        if let Placement::RackAware { nodes_per_rack } = policy {
            if nodes_per_rack == 0 || !n_nodes.is_multiple_of(nodes_per_rack) {
                return Err(format!(
                    "RackAware needs n_nodes ({n_nodes}) divisible by nodes_per_rack ({nodes_per_rack})"
                ));
            }
        }
        Ok(())
    }

    /// The nodes holding object `obj`'s replicas (distinct, length
    /// `n_replicas`).
    pub fn place(&mut self, obj: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.n_replicas);
        self.place_into(obj, &mut out);
        out
    }

    /// [`place`](Self::place) into a caller-owned buffer (cleared first):
    /// the allocation-free path million-object model construction uses.
    /// Identical RNG draw sequence to `place`.
    pub fn place_into(&mut self, obj: u64, out: &mut Vec<usize>) {
        out.clear();
        match self.policy {
            Placement::Random => self
                .rng
                .sample_indices_into(self.n_nodes, self.n_replicas, out),
            Placement::RoundRobin => {
                let start = (obj % self.n_nodes as u64) as usize;
                out.extend((0..self.n_replicas).map(|i| (start + i) % self.n_nodes));
            }
            Placement::Copyset { .. } => {
                let idx = (obj % self.copysets.len() as u64) as usize;
                out.extend_from_slice(&self.copysets[idx]);
            }
            Placement::RackAware { nodes_per_rack } => {
                let racks = self.n_nodes / nodes_per_rack;
                // Pick distinct racks (cycling if replicas > racks), then a
                // random node inside each chosen rack, avoiding duplicates
                // on wrap-around.
                let mut rack_order = std::mem::take(&mut self.rack_scratch);
                self.rng
                    .sample_indices_into(racks, racks.min(self.n_replicas), &mut rack_order);
                let mut i = 0;
                while out.len() < self.n_replicas {
                    let rack = rack_order[i % rack_order.len()];
                    let base = rack * nodes_per_rack;
                    // Rejection-sample a free node in this rack (always
                    // terminates: width ≤ n_nodes guarantees capacity).
                    loop {
                        let node = base + self.rng.index(nodes_per_rack);
                        if !out.contains(&node) {
                            out.push(node);
                            break;
                        }
                    }
                    i += 1;
                }
                self.rack_scratch = rack_order;
            }
        }
    }

    /// The distinct replica sets this placer can produce for `objects`
    /// object IDs (used to reason about the unavailability surface).
    pub fn distinct_sets(&mut self, objects: u64) -> usize {
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for obj in 0..objects {
            let mut s = self.place(obj);
            s.sort_unstable();
            if !sets.contains(&s) {
                sets.push(s);
            }
        }
        sets.len()
    }

    /// Cluster size.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Replication factor.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }
}

/// Builds copysets by the permutation method of the Copysets paper:
/// `p = ceil(S / (n−1))` random permutations, each chopped into groups of
/// `n` (the last short group wraps with the permutation head).
fn build_copysets(
    n_nodes: usize,
    n: usize,
    scatter_width: usize,
    rng: &mut Stream,
) -> Vec<Vec<usize>> {
    assert!(n >= 1);
    if n == 1 {
        return (0..n_nodes).map(|i| vec![i]).collect();
    }
    let permutations = scatter_width.div_ceil(n - 1).max(1);
    let mut out = Vec::new();
    for _ in 0..permutations {
        let mut perm: Vec<usize> = (0..n_nodes).collect();
        rng.shuffle(&mut perm);
        let mut i = 0;
        while i + n <= n_nodes {
            out.push(perm[i..i + n].to_vec());
            i += n;
        }
        if i < n_nodes {
            // Wrap the tail with the head of the same permutation.
            let mut tail: Vec<usize> = perm[i..].to_vec();
            let mut j = 0;
            while tail.len() < n {
                if !tail.contains(&perm[j]) {
                    tail.push(perm[j]);
                }
                j += 1;
            }
            out.push(tail);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Stream {
        Stream::from_seed(seed)
    }

    #[test]
    fn random_places_distinct_nodes() {
        let mut p = Placer::new(Placement::Random, 10, 3, stream(1));
        for obj in 0..1000 {
            let nodes = p.place(obj);
            assert_eq!(nodes.len(), 3);
            let mut s = nodes.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3, "duplicates in {nodes:?}");
            assert!(nodes.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn round_robin_is_deterministic_consecutive() {
        let mut p = Placer::new(Placement::RoundRobin, 10, 3, stream(1));
        assert_eq!(p.place(0), vec![0, 1, 2]);
        assert_eq!(p.place(7), vec![7, 8, 9]);
        assert_eq!(p.place(9), vec![9, 0, 1]);
        assert_eq!(p.place(13), vec![3, 4, 5]);
    }

    #[test]
    fn round_robin_has_exactly_n_distinct_sets() {
        // RR over N nodes yields at most N distinct replica sets — the
        // structural reason Fig. 1 separates RR from Random.
        let mut p = Placer::new(Placement::RoundRobin, 10, 3, stream(1));
        assert_eq!(p.distinct_sets(10_000), 10);
    }

    #[test]
    fn random_has_many_distinct_sets() {
        let mut p = Placer::new(Placement::Random, 30, 3, stream(2));
        let sets = p.distinct_sets(2_000);
        // C(30,3) = 4060 possible; with 2000 draws expect well over 1000.
        assert!(sets > 1000, "only {sets} distinct sets");
    }

    #[test]
    fn copysets_fewer_sets_than_random() {
        let mut cs = Placer::new(Placement::Copyset { scatter_width: 4 }, 30, 3, stream(3));
        let cs_sets = cs.distinct_sets(5_000);
        let mut r = Placer::new(Placement::Random, 30, 3, stream(3));
        let r_sets = r.distinct_sets(5_000);
        assert!(
            cs_sets * 10 < r_sets,
            "copysets should collapse the set space: {cs_sets} vs {r_sets}"
        );
    }

    #[test]
    fn copyset_members_distinct_and_sized() {
        let mut p = Placer::new(Placement::Copyset { scatter_width: 6 }, 20, 3, stream(4));
        for obj in 0..500 {
            let set = p.place(obj);
            assert_eq!(set.len(), 3);
            let mut s = set.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 3);
            assert!(set.iter().all(|&x| x < 20));
        }
    }

    #[test]
    fn same_seed_same_placement() {
        let seq = |seed| {
            let mut p = Placer::new(Placement::Random, 30, 5, stream(seed));
            (0..100).map(|o| p.place(o)).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }

    #[test]
    fn single_replica_allowed() {
        let mut p = Placer::new(Placement::RoundRobin, 5, 1, stream(1));
        assert_eq!(p.place(3), vec![3]);
        let mut c = Placer::new(Placement::Copyset { scatter_width: 2 }, 5, 1, stream(1));
        let set = c.place(2);
        assert_eq!(set.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn overful_replication_rejected() {
        let _ = Placer::new(Placement::Random, 3, 5, stream(1));
    }

    #[test]
    fn labels() {
        assert_eq!(Placement::Random.label(), "R");
        assert_eq!(Placement::RoundRobin.label(), "RR");
        assert_eq!(Placement::Copyset { scatter_width: 2 }.label(), "CS");
        assert_eq!(Placement::RackAware { nodes_per_rack: 5 }.label(), "RA");
    }

    #[test]
    fn rack_aware_spreads_across_racks() {
        // 6 racks × 5 nodes, 3 replicas: every object's replicas land in
        // three distinct racks.
        let mut p = Placer::new(Placement::RackAware { nodes_per_rack: 5 }, 30, 3, stream(8));
        for obj in 0..500 {
            let set = p.place(obj);
            let mut racks: Vec<usize> = set.iter().map(|&n| n / 5).collect();
            racks.sort_unstable();
            racks.dedup();
            assert_eq!(racks.len(), 3, "object {obj} not rack-diverse: {set:?}");
        }
    }

    #[test]
    fn rack_aware_wraps_when_replicas_exceed_racks() {
        // 2 racks × 4 nodes, 5 replicas: must still produce 5 distinct
        // nodes, at most 3 per rack (ceil(5/2)).
        let mut p = Placer::new(Placement::RackAware { nodes_per_rack: 4 }, 8, 5, stream(9));
        for obj in 0..200 {
            let set = p.place(obj);
            let mut s = set.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 5);
            let rack0 = set.iter().filter(|&&n| n < 4).count();
            assert!((2..=3).contains(&rack0), "{set:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rack_aware_requires_even_racks() {
        let _ = Placer::new(Placement::RackAware { nodes_per_rack: 4 }, 10, 3, stream(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn placement_always_valid(
            policy_idx in 0usize..3,
            n_nodes in 3usize..60,
            seed in any::<u64>(),
            obj in any::<u64>()
        ) {
            let n_replicas = 3.min(n_nodes);
            let policy = match policy_idx {
                0 => Placement::Random,
                1 => Placement::RoundRobin,
                _ => Placement::Copyset { scatter_width: 4 },
            };
            let mut p = Placer::new(policy, n_nodes, n_replicas, Stream::from_seed(seed));
            let set = p.place(obj);
            prop_assert_eq!(set.len(), n_replicas);
            let mut s = set.clone();
            s.sort_unstable();
            s.dedup();
            prop_assert_eq!(s.len(), n_replicas, "distinct");
            prop_assert!(set.iter().all(|&x| x < n_nodes));
        }
    }
}

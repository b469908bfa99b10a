//! Systematic Reed–Solomon erasure coding — the paper's \[14\] design axis
//! for availability SLAs at lower storage overhead than replication.
//!
//! An RS(k, m) stripe splits an object into `k` data shards and computes
//! `m` parity shards; any `k` of the `k+m` survive-and-decode. The encoder
//! uses the standard systematic construction: a `(k+m)×k` Vandermonde
//! matrix, normalized by the inverse of its top `k×k` block so the first
//! `k` rows become the identity (data shards are stored verbatim).

use crate::gf256;
use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Shape of an erasure-coded stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StripeSpec {
    /// Data shards.
    pub k: usize,
    /// Parity shards.
    pub m: usize,
}

impl StripeSpec {
    /// A stripe shape. `k ≥ 1`, `m ≥ 0`, `k + m ≤ 255` (GF(256) limit).
    /// Panics on a shape [`check`](Self::check) rejects.
    pub fn new(k: usize, m: usize) -> Self {
        if let Err(e) = Self::check(k, m) {
            panic!("{e}");
        }
        StripeSpec { k, m }
    }

    /// Checks what [`new`](Self::new) asserts.
    pub fn check(k: usize, m: usize) -> Result<(), String> {
        if k == 0 {
            return Err("need at least one data shard".into());
        }
        if k + m > 255 {
            return Err(format!(
                "k+m must fit in GF(256) evaluation points, got {k}+{m}"
            ));
        }
        Ok(())
    }

    /// Total shards per stripe.
    pub fn total(&self) -> usize {
        self.k + self.m
    }

    /// Storage overhead factor relative to the raw data (3-way replication
    /// is 3.0; RS(10,4) is 1.4 — the "XORing elephants" headline saving).
    pub fn overhead(&self) -> f64 {
        self.total() as f64 / self.k as f64
    }

    /// True if the stripe can be read/rebuilt with `up` shards alive.
    pub fn available(&self, up: usize) -> bool {
        up >= self.k
    }

    /// Number of shard losses the stripe tolerates.
    pub fn fault_tolerance(&self) -> usize {
        self.m
    }
}

/// A Reed–Solomon encoder/decoder for one stripe shape.
#[derive(Debug, Clone)]
pub struct ErasureCode {
    spec: StripeSpec,
    /// The systematic generator matrix: `(k+m) × k`; top `k` rows are I.
    gen: Vec<Vec<u8>>,
}

impl ErasureCode {
    /// Builds the systematic generator for `spec`.
    pub fn new(spec: StripeSpec) -> Self {
        let k = spec.k;
        let n = spec.total();
        // Vandermonde: row i = [α_i^0, α_i^1, ..., α_i^{k-1}] with distinct
        // evaluation points α_i = i (0..n). Any k rows are independent.
        let vand: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..k).map(|j| gf256::pow(i as u8, j as u32)).collect())
            .collect();
        // Normalize: G = V · (top k×k of V)⁻¹ so the top block becomes I.
        let top: Vec<Vec<u8>> = vand[..k].to_vec();
        let top_inv = gf256::invert_matrix(&top).expect("Vandermonde block is invertible");
        let gen = gf256::mat_mul(&vand, &top_inv);
        debug_assert!((0..k).all(|i| (0..k).all(|j| gen[i][j] == u8::from(i == j))));
        ErasureCode { spec, gen }
    }

    /// The stripe shape.
    pub fn spec(&self) -> StripeSpec {
        self.spec
    }

    /// Encodes `data` into `k + m` shards. `data.len()` must be divisible
    /// by `k`; pad beforehand if needed. Returns all shards, data first.
    pub fn encode(&self, data: &[u8]) -> Vec<Bytes> {
        let k = self.spec.k;
        assert!(
            !data.is_empty() && data.len().is_multiple_of(k),
            "data length {} not divisible by k={k}",
            data.len()
        );
        let shard_len = data.len() / k;
        let data_shards: Vec<&[u8]> = data.chunks(shard_len).collect();
        let mut out: Vec<Bytes> = data_shards
            .iter()
            .map(|s| Bytes::copy_from_slice(s))
            .collect();
        for parity_row in &self.gen[k..] {
            let mut shard = vec![0u8; shard_len];
            for (j, src) in data_shards.iter().enumerate() {
                gf256::mul_acc_slice(&mut shard, src, parity_row[j]);
            }
            out.push(Bytes::from(shard));
        }
        out
    }

    /// Reconstructs the original data from any `k` surviving shards.
    /// `shards[i]` is `Some` if shard index `i` survived. Returns `None`
    /// if fewer than `k` shards are present.
    pub fn decode(&self, shards: &[Option<Bytes>]) -> Option<Vec<u8>> {
        let k = self.spec.k;
        assert_eq!(shards.len(), self.spec.total(), "shard vector wrong length");
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        if present.len() < k {
            return None;
        }
        let use_rows = &present[..k];
        let shard_len = shards[use_rows[0]].as_ref().expect("present").len();
        assert!(
            use_rows
                .iter()
                .all(|&i| shards[i].as_ref().expect("present").len() == shard_len),
            "surviving shards have inconsistent lengths"
        );

        // Fast path: all k data shards survived.
        if use_rows
            .iter()
            .take(k)
            .eq((0..k).collect::<Vec<_>>().iter())
        {
            let mut data = Vec::with_capacity(k * shard_len);
            for shard in shards.iter().take(k) {
                data.extend_from_slice(shard.as_ref().expect("present"));
            }
            return Some(data);
        }

        // General path: invert the sub-generator of the surviving rows.
        let sub: Vec<Vec<u8>> = use_rows.iter().map(|&i| self.gen[i].clone()).collect();
        let sub_inv = gf256::invert_matrix(&sub).expect("any k generator rows are independent");
        let mut data = vec![0u8; k * shard_len];
        for (out_idx, inv_row) in sub_inv.iter().enumerate() {
            let dst = &mut data[out_idx * shard_len..(out_idx + 1) * shard_len];
            for (j, &row_idx) in use_rows.iter().enumerate() {
                let src = shards[row_idx].as_ref().expect("present");
                gf256::mul_acc_slice(dst, src, inv_row[j]);
            }
        }
        Some(data)
    }

    /// Rebuilds one lost shard (data or parity) from any `k` survivors —
    /// the unit of repair traffic in the cluster simulator.
    pub fn rebuild_shard(&self, shards: &[Option<Bytes>], idx: usize) -> Option<Bytes> {
        let data = self.decode(shards)?;
        let all = self.encode(&data);
        Some(all[idx].clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wt_des::rng::Stream;

    fn random_data(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = Stream::from_seed(seed);
        (0..len).map(|_| rng.below(256) as u8).collect()
    }

    #[test]
    fn encode_is_systematic() {
        let code = ErasureCode::new(StripeSpec::new(4, 2));
        let data = random_data(4 * 64, 1);
        let shards = code.encode(&data);
        assert_eq!(shards.len(), 6);
        for (i, chunk) in data.chunks(64).enumerate() {
            assert_eq!(&shards[i][..], chunk, "data shard {i} stored verbatim");
        }
    }

    #[test]
    fn decode_with_all_shards() {
        let code = ErasureCode::new(StripeSpec::new(6, 3));
        let data = random_data(6 * 100, 2);
        let shards: Vec<Option<Bytes>> = code.encode(&data).into_iter().map(Some).collect();
        assert_eq!(code.decode(&shards).unwrap(), data);
    }

    #[test]
    fn decode_with_any_k_survivors() {
        let spec = StripeSpec::new(4, 3);
        let code = ErasureCode::new(spec);
        let data = random_data(4 * 32, 3);
        let all = code.encode(&data);
        // Try every possible set of exactly m=3 losses.
        let n = spec.total();
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let mut shards: Vec<Option<Bytes>> = all.iter().cloned().map(Some).collect();
                    shards[a] = None;
                    shards[b] = None;
                    shards[c] = None;
                    let dec = code
                        .decode(&shards)
                        .unwrap_or_else(|| panic!("losses {a},{b},{c} should decode"));
                    assert_eq!(dec, data, "losses {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn too_many_losses_fail() {
        let code = ErasureCode::new(StripeSpec::new(4, 2));
        let data = random_data(4 * 16, 4);
        let all = code.encode(&data);
        let mut shards: Vec<Option<Bytes>> = all.into_iter().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        shards[5] = None; // 3 losses > m = 2
        assert!(code.decode(&shards).is_none());
    }

    #[test]
    fn rebuild_single_shard() {
        let code = ErasureCode::new(StripeSpec::new(5, 2));
        let data = random_data(5 * 48, 5);
        let all = code.encode(&data);
        for lost in 0..7 {
            let mut shards: Vec<Option<Bytes>> = all.iter().cloned().map(Some).collect();
            shards[lost] = None;
            let rebuilt = code.rebuild_shard(&shards, lost).unwrap();
            assert_eq!(rebuilt, all[lost], "rebuilt shard {lost}");
        }
    }

    #[test]
    fn rs_10_4_the_xoring_elephants_code() {
        let spec = StripeSpec::new(10, 4);
        assert!((spec.overhead() - 1.4).abs() < 1e-12);
        assert_eq!(spec.fault_tolerance(), 4);
        let code = ErasureCode::new(spec);
        let data = random_data(10 * 128, 6);
        let all = code.encode(&data);
        let mut shards: Vec<Option<Bytes>> = all.into_iter().map(Some).collect();
        for lost in [0, 3, 11, 13] {
            shards[lost] = None;
        }
        assert_eq!(code.decode(&shards).unwrap(), data);
    }

    #[test]
    fn availability_predicate() {
        let spec = StripeSpec::new(6, 3);
        assert!(spec.available(9));
        assert!(spec.available(6));
        assert!(!spec.available(5));
    }

    #[test]
    fn pure_replication_as_degenerate_code() {
        // RS(1, 2) = 3 identical copies.
        let code = ErasureCode::new(StripeSpec::new(1, 2));
        let data = random_data(40, 7);
        let shards = code.encode(&data);
        assert_eq!(&shards[0][..], &data[..]);
        assert_eq!(&shards[1][..], &data[..], "parity of k=1 is a copy");
        assert_eq!(&shards[2][..], &data[..]);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn unpadded_data_rejected() {
        let code = ErasureCode::new(StripeSpec::new(4, 2));
        let _ = code.encode(&[1, 2, 3]);
    }

    #[test]
    fn overhead_comparison_replication_vs_rs() {
        // The paper's §3 availability-SLA axis: same fault tolerance,
        // very different storage bills.
        let three_way = StripeSpec::new(1, 2); // tolerates 2, overhead 3.0
        let rs_6_3 = StripeSpec::new(6, 3); // tolerates 3, overhead 1.5
        assert_eq!(three_way.fault_tolerance(), 2);
        assert_eq!(rs_6_3.fault_tolerance(), 3);
        assert!(rs_6_3.overhead() < three_way.overhead() / 1.9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use wt_des::rng::Stream;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Encode → lose any ≤ m random shards → decode recovers the data.
        #[test]
        fn erasure_roundtrip(k in 1usize..8, m in 0usize..5,
                             shard_len in 1usize..64, seed in any::<u64>()) {
            let spec = StripeSpec::new(k, m);
            let code = ErasureCode::new(spec);
            let mut rng = Stream::from_seed(seed);
            let data: Vec<u8> = (0..k * shard_len).map(|_| rng.below(256) as u8).collect();
            let all = code.encode(&data);
            prop_assert_eq!(all.len(), k + m);
            // Lose a random subset of exactly m shards.
            let lost = rng.sample_indices(k + m, m);
            let mut shards: Vec<Option<Bytes>> = all.into_iter().map(Some).collect();
            for l in lost {
                shards[l] = None;
            }
            prop_assert_eq!(code.decode(&shards).unwrap(), data);
        }
    }
}

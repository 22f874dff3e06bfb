//! Process-wide transform-matrix cache.
//!
//! Building a [`TransformMatrix`] integrates the mechanism's conditional
//! output density over every `(input bucket, output bucket)` pair. The
//! protocol rebuilds the *same* matrices over and over — one per group per
//! trial per experiment cell, keyed only by `(mechanism, ε, d, d', poison
//! region)` — so the probe, the per-group estimation, and all bench figure
//! drivers share this cache instead.
//!
//! Matrices are immutable once built and handed out as [`Arc`]s from a
//! [`Memo`] (single-flight, LRU, counters). Mechanisms opt in via
//! [`NumericMechanism::matrix_cache_key`]; mechanisms without a stable key
//! (the default) get a fresh, uncached build.

use crate::memo::Memo;
use crate::transform::{PoisonRegion, TransformMatrix};
use dap_ldp::NumericMechanism;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Hashable canonical form of a [`PoisonRegion`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum PoisonKey {
    None,
    RightOf(u64),
    LeftOf(u64),
    Buckets(Vec<usize>),
}

impl From<&PoisonRegion> for PoisonKey {
    fn from(region: &PoisonRegion) -> Self {
        match region {
            PoisonRegion::None => PoisonKey::None,
            PoisonRegion::RightOf(p) => PoisonKey::RightOf(p.to_bits()),
            PoisonRegion::LeftOf(p) => PoisonKey::LeftOf(p.to_bits()),
            PoisonRegion::Buckets(b) => PoisonKey::Buckets(b.clone()),
        }
    }
}

/// The opaque key of a cached matrix: mechanism family and parameters,
/// bucket counts and poison region.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MatrixKey {
    family: &'static str,
    params: u64,
    d_in: usize,
    d_out: usize,
    poison: PoisonKey,
}

/// Entry cap, so a long-running service sweeping many budgets cannot grow
/// the cache unbounded. Real workloads hold a few dozen distinct keys.
const MAX_ENTRIES: usize = 1024;

/// A keyed store of built transform matrices (see the module docs).
pub struct MatrixCache(Memo<MatrixKey, Arc<TransformMatrix>>);

impl Deref for MatrixCache {
    type Target = Memo<MatrixKey, Arc<TransformMatrix>>;
    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl MatrixCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        MatrixCache(Memo::new(MAX_ENTRIES))
    }

    /// The process-wide cache used by the protocol and bench layers.
    pub fn global() -> &'static MatrixCache {
        static GLOBAL: OnceLock<MatrixCache> = OnceLock::new();
        GLOBAL.get_or_init(MatrixCache::new)
    }

    /// Cached equivalent of [`TransformMatrix::for_numeric`]. Builds (and
    /// stores, when the mechanism has a stable key) on miss.
    pub fn for_numeric(
        &self,
        mech: &dyn NumericMechanism,
        d_in: usize,
        d_out: usize,
        poison: &PoisonRegion,
    ) -> Arc<TransformMatrix> {
        let build = || Arc::new(TransformMatrix::for_numeric(mech, d_in, d_out, poison));
        match mech.matrix_cache_key() {
            Some((family, params)) => {
                let key = MatrixKey { family, params, d_in, d_out, poison: poison.into() };
                self.0.get_or_load(key, build)
            }
            None => build(),
        }
    }
}

impl Default for MatrixCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Shorthand for [`MatrixCache::for_numeric`] on the global cache.
pub fn cached_for_numeric(
    mech: &dyn NumericMechanism,
    d_in: usize,
    d_out: usize,
    poison: &PoisonRegion,
) -> Arc<TransformMatrix> {
    MatrixCache::global().for_numeric(mech, d_in, d_out, poison)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_ldp::PiecewiseMechanism;

    #[test]
    fn hits_share_the_same_allocation() {
        let cache = MatrixCache::new();
        let mech = PiecewiseMechanism::with_epsilon(0.5).unwrap();
        let a = cache.for_numeric(&mech, 8, 32, &PoisonRegion::RightOf(0.0));
        let b = cache.for_numeric(&mech, 8, 32, &PoisonRegion::RightOf(0.0));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_matrices() {
        let cache = MatrixCache::new();
        let m1 = PiecewiseMechanism::with_epsilon(0.5).unwrap();
        let m2 = PiecewiseMechanism::with_epsilon(1.0).unwrap();
        let a = cache.for_numeric(&m1, 8, 32, &PoisonRegion::RightOf(0.0));
        let b = cache.for_numeric(&m2, 8, 32, &PoisonRegion::RightOf(0.0));
        let c = cache.for_numeric(&m1, 8, 32, &PoisonRegion::LeftOf(0.0));
        let d = cache.for_numeric(&m1, 8, 64, &PoisonRegion::RightOf(0.0));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(!Arc::ptr_eq(&a, &d));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn cached_matrix_equals_uncached_build() {
        let cache = MatrixCache::new();
        let mech = PiecewiseMechanism::with_epsilon(0.25).unwrap();
        let region = PoisonRegion::Buckets(vec![3, 5]);
        let cached = cache.for_numeric(&mech, 6, 24, &region);
        let fresh = TransformMatrix::for_numeric(&mech, 6, 24, &region);
        for i in 0..24 {
            assert_eq!(cached.normal_row(i), fresh.normal_row(i));
        }
        assert_eq!(cached.poison_buckets(), fresh.poison_buckets());
    }

    #[test]
    fn keyless_mechanisms_bypass_the_cache() {
        struct NoKey(PiecewiseMechanism);
        impl NumericMechanism for NoKey {
            fn epsilon(&self) -> dap_ldp::Epsilon {
                self.0.epsilon()
            }
            fn input_range(&self) -> (f64, f64) {
                self.0.input_range()
            }
            fn output_range(&self) -> (f64, f64) {
                self.0.output_range()
            }
            fn perturb(&self, v: f64, rng: &mut dyn rand::RngCore) -> f64 {
                self.0.perturb(v, rng)
            }
            fn output_distribution(&self, v: f64) -> dap_ldp::OutputDistribution {
                self.0.output_distribution(v)
            }
        }
        let cache = MatrixCache::new();
        let mech = NoKey(PiecewiseMechanism::with_epsilon(0.5).unwrap());
        let a = cache.for_numeric(&mech, 4, 16, &PoisonRegion::None);
        let b = cache.for_numeric(&mech, 4, 16, &PoisonRegion::None);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(cache.is_empty());
    }
}

//! Gather/scatter: index-vector addressing.
//!
//! The original 1982 X-MP accessed memory only through constant-stride
//! vector instructions — the paper's setting. Later X-MP models (EA, and
//! the Y-MP line) added hardware gather/scatter, where the element
//! addresses come from an index vector: `A(I) = B(IX(I))`. This module
//! models that access pattern so the cost of irregular indexing can be
//! quantified on the same memory system: a gather behaves like the
//! random-access workloads of the classical models, but *in-order through
//! a single port*, so every conflict stalls the whole stream.
//!
//! The workload itself is the shared pattern machinery of
//! [`vecmem_simcore::pattern`]: a finite single-port
//! [`PatternWorkload`]`<`[`GatherPattern`]`>` driven through the one step
//! kernel, with [`IndexPattern`] generating the index vector. The differential oracle verifies the same patterns in
//! lockstep, and `vecmem steady --pattern gather` measures their
//! steady-state bandwidth.

use vecmem_analytic::Geometry;
use vecmem_banksim::pattern::{GatherPattern, IndexPattern, PatternPort, PatternWorkload};
use vecmem_banksim::{Engine, RunOutcome, SimConfig};

/// A single-port gather: `n` loads from `base + ix(k)` in index order,
/// running on the shared pattern machinery.
pub type GatherWorkload = PatternWorkload<GatherPattern>;

/// Builds a gather of `n` elements from `base .. base + span` on port 0.
///
/// # Panics
/// If `span` is zero.
#[must_use]
pub fn gather_workload(
    geom: &Geometry,
    base: u64,
    span: u64,
    pattern: IndexPattern,
    n: u64,
) -> GatherWorkload {
    PatternWorkload::new(vec![PatternPort::new(GatherPattern::new(
        geom, base, span, pattern,
    ))
    .with_length(n)])
}

/// Result of a gather experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatherResult {
    /// Elements gathered.
    pub n: u64,
    /// Clock periods taken.
    pub cycles: u64,
    /// Effective bandwidth (elements per clock period).
    pub bandwidth: f64,
}

/// Runs a single-port gather on the given geometry and measures its rate.
#[must_use]
pub fn run_gather(geom: &Geometry, pattern: IndexPattern, span: u64, n: u64) -> GatherResult {
    let config = SimConfig::single_cpu(*geom, 1);
    let mut engine = Engine::new(config);
    let mut workload = gather_workload(geom, 0, span, pattern, n);
    let bound = n * geom.bank_cycle() + 1_000;
    let cycles = match engine.run(&mut workload, bound) {
        RunOutcome::Finished(c) => c,
        RunOutcome::CyclesExhausted => panic!("gather did not finish in {bound} cycles"),
    };
    GatherResult {
        n,
        cycles,
        bandwidth: n as f64 / cycles as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::cray_xmp()
    }

    #[test]
    fn affine_unit_gather_is_a_stride() {
        // a = 1: the gather degenerates to unit stride -> full bandwidth.
        let r = run_gather(&geom(), IndexPattern::Affine { a: 1, c: 0 }, 1 << 20, 512);
        assert_eq!(r.cycles, 512);
        assert!((r.bandwidth - 1.0).abs() < 1e-12);
    }

    #[test]
    fn affine_bad_multiplier_self_conflicts() {
        // a = 16 on 16 banks: every index lands in bank 0 (span a multiple
        // of m·a): bandwidth 1/n_c.
        let r = run_gather(&geom(), IndexPattern::Affine { a: 16, c: 0 }, 1 << 20, 256);
        assert!(r.bandwidth <= 0.26, "got {}", r.bandwidth); // 1/n_c plus startup slack
    }

    #[test]
    fn pseudo_random_gather_between_bounds() {
        // Random gather on m = 16, n_c = 4: same regime as the single
        // random port of the classical models — between 1/n_c and 1,
        // empirically ~0.75.
        let r = run_gather(
            &geom(),
            IndexPattern::PseudoRandom { seed: 42 },
            1 << 20,
            4_096,
        );
        assert!(r.bandwidth > 0.5, "too slow: {}", r.bandwidth);
        assert!(r.bandwidth < 0.95, "too fast for random: {}", r.bandwidth);
    }

    #[test]
    fn pseudo_random_is_deterministic() {
        let a = run_gather(&geom(), IndexPattern::PseudoRandom { seed: 7 }, 1024, 1_000);
        let b = run_gather(&geom(), IndexPattern::PseudoRandom { seed: 7 }, 1024, 1_000);
        assert_eq!(a, b);
        let c = run_gather(&geom(), IndexPattern::PseudoRandom { seed: 8 }, 1024, 1_000);
        assert_ne!(a.cycles, c.cycles);
    }

    #[test]
    fn indices_stay_in_span() {
        for pattern in [
            IndexPattern::Affine { a: 7, c: 3 },
            IndexPattern::PseudoRandom { seed: 1 },
        ] {
            for k in 0..1000 {
                assert!(pattern.index(k, 37) < 37);
            }
        }
    }

    #[test]
    #[should_panic(expected = "span must be positive")]
    fn zero_span_rejected() {
        let g = geom();
        let _ = gather_workload(&g, 0, 0, IndexPattern::Affine { a: 1, c: 0 }, 1);
    }

    #[test]
    fn gather_slower_than_stride_on_average() {
        // The headline comparison: irregular indexing costs bandwidth even
        // with zero instruction overheads, purely from bank conflicts. A
        // single seed can get lucky, so run the property harness's shared
        // seed set and compare the *average* random-gather cost against the
        // strided baseline.
        let strided = run_gather(&geom(), IndexPattern::Affine { a: 1, c: 0 }, 1 << 20, 2_048);
        let seeds = vecmem_prop::seeds("gather_vs_stride", 12);
        let total_random_cycles: u64 = seeds
            .iter()
            .map(|&seed| {
                run_gather(&geom(), IndexPattern::PseudoRandom { seed }, 1 << 20, 2_048).cycles
            })
            .sum();
        let avg_random = total_random_cycles as f64 / seeds.len() as f64;
        assert!(
            avg_random > strided.cycles as f64,
            "random gather averaged {avg_random} cycles over {} seeds, \
             strided took {}",
            seeds.len(),
            strided.cycles
        );
    }
}

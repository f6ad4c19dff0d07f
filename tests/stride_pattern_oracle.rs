//! The stride path against the independent reference.
//!
//! Every strided port runs as [`PatternWorkload`]`<StridePattern>`. Over
//! random geometries and stream pairs, driving the optimized engine through
//! that path must agree in lockstep with the oracle's naive `RefEngine` —
//! requested bank, grant/delay outcome and conflict kind on every port,
//! and the full packed state after every cycle. The figure goldens
//! (fig02–09) pin the same path at the artefact level in
//! `scripts/check.sh`.
//!
//! [`PatternWorkload`]: vecmem::banksim::PatternWorkload

use vecmem::banksim::SimConfig;
use vecmem::oracle::run_pair;
use vecmem::{Geometry, StreamSpec};
use vecmem_prop::prelude::*;

const LOCKSTEP_CYCLES: u64 = 400;

fn lockstep_case(config: &SimConfig, specs: &[StreamSpec]) -> Result<(), TestCaseError> {
    let outcome = run_pair(config, specs, LOCKSTEP_CYCLES);
    prop_assert!(outcome.matched(), "{:?} {:?}: {:?}", config, specs, outcome);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Unsectioned random geometries, cross-CPU port topology.
    #[test]
    fn stride_pattern_path_matches_reference(
        m in 2u64..=20,
        nc in 1u64..=6,
        d1 in 0u64..=40,
        d2 in 0u64..=40,
        b1 in 0u64..=40,
        b2 in 0u64..=40,
    ) {
        let geom = Geometry::unsectioned(m, nc).unwrap();
        let specs = [
            StreamSpec { start_bank: b1 % m, distance: d1 % m },
            StreamSpec { start_bank: b2 % m, distance: d2 % m },
        ];
        lockstep_case(&SimConfig::one_port_per_cpu(geom, 2), &specs)?;
    }

    /// Sectioned geometries with both ports on one CPU: section conflicts
    /// and the access-path arbiter must agree with the reference too.
    #[test]
    fn stride_pattern_path_matches_reference_sectioned(
        s_idx in 0usize..=2,
        d1 in 0u64..=40,
        d2 in 0u64..=40,
        b2 in 0u64..=40,
    ) {
        let (m, s, nc) = [(12, 2, 2), (12, 3, 3), (16, 4, 4)][s_idx];
        let geom = Geometry::new(m, s, nc).unwrap();
        let specs = [
            StreamSpec { start_bank: 0, distance: d1 % m },
            StreamSpec { start_bank: b2 % m, distance: d2 % m },
        ];
        lockstep_case(&SimConfig::single_cpu(geom, 2), &specs)?;
    }
}

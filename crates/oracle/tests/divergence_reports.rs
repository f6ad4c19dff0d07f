//! Pinned divergence reports of the seeded arbiter faults.
//!
//! Each case runs a faithful lockstep first (it must match), then the same
//! scenario against a reference engine with one seeded fault, and asserts
//! the first divergent cycle and the rendered report byte for byte against
//! a golden file under `tests/golden/` (the `Display` form of
//! [`Divergence`]: the cycle line followed by the dual state dump). The
//! goldens were captured before the lockstep compared field by field, so
//! any drift in when a fault is caught or in how the dump reads shows here.

#![cfg(feature = "bug_injection")]

use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_banksim::{BankModel, PriorityRule, SimConfig};
use vecmem_oracle::{mirror_config, run_pair, run_pair_against, InjectedBug, RefEngine};

fn stream(start_bank: u64, distance: u64) -> StreamSpec {
    StreamSpec {
        start_bank,
        distance,
    }
}

/// Asserts the faithful pair matches and the faulty one diverges at
/// `cycle` with exactly the golden report.
fn assert_pinned(
    config: &SimConfig,
    streams: &[StreamSpec],
    bug: InjectedBug,
    cycle: u64,
    golden: &str,
) {
    let clean = run_pair(config, streams, 4_000);
    assert!(clean.matched(), "faithful pair must match: {clean:?}");
    let oracle = RefEngine::new(mirror_config(config), streams).with_bug(bug);
    let out = run_pair_against(oracle, config, streams, 4_000);
    let d = out.divergence().expect("the seeded fault must diverge");
    assert_eq!(d.cycle, cycle, "{d}");
    assert_eq!(d.to_string(), golden);
}

#[test]
fn inverted_priority_report_is_pinned() {
    let g = Geometry::unsectioned(8, 2).unwrap();
    assert_pinned(
        &SimConfig::one_port_per_cpu(g, 2),
        &[stream(0, 1), stream(6, 3)],
        InjectedBug::InvertedPriority,
        1,
        include_str!("golden/inverted_priority.txt"),
    );
}

#[test]
fn stuck_rotation_report_is_pinned() {
    let g = Geometry::unsectioned(4, 1).unwrap();
    assert_pinned(
        &SimConfig::one_port_per_cpu(g, 2).with_priority(PriorityRule::Cyclic),
        &[stream(0, 0), stream(0, 0)],
        InjectedBug::StuckRotation,
        0,
        include_str!("golden/stuck_rotation.txt"),
    );
}

/// Without the sanitizer the overflowing residue surfaces as a state
/// divergence; with it the lift aborts first (pinned in `diff.rs`).
#[cfg(not(feature = "sanitize"))]
#[test]
fn residue_overflow_report_is_pinned() {
    let g = Geometry::unsectioned(8, 4).unwrap();
    assert_pinned(
        &SimConfig::single_cpu(g, 1),
        &[stream(0, 0)],
        InjectedBug::ResidueOverflow,
        4,
        include_str!("golden/residue_overflow.txt"),
    );
}

/// Under the DRAM bank model the dump carries both sides' open rows.
#[test]
fn dram_inverted_priority_report_is_pinned() {
    let g = Geometry::unsectioned(16, 4).unwrap();
    assert_pinned(
        &SimConfig::one_port_per_cpu(g, 2).with_bank_model(BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        }),
        &[stream(0, 2), stream(1, 1)],
        InjectedBug::InvertedPriority,
        1,
        include_str!("golden/dram_inverted_priority.txt"),
    );
}

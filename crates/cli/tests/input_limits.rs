//! End-to-end checks of the `vecmem` binary at its input limits: a bank
//! cycle time the packed simulator state cannot hold is rejected with a
//! named error and exit code 1, never a panic (exit code 101).

use std::process::{Command, Output};
use vecmem_banksim::config::MAX_BANK_CYCLE;

fn vecmem(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_vecmem"))
        .args(args)
        .output()
        .expect("the vecmem binary runs")
}

#[test]
fn oversized_bank_cycle_is_a_typed_error() {
    let limit = MAX_BANK_CYCLE.to_string();
    let over = (MAX_BANK_CYCLE + 1).to_string();
    let cases: [&[&str]; 5] = [
        &["steady", "--nc", &over],
        &[
            "steady",
            "--nc",
            "300",
            "--pattern",
            "gather",
            "--affine",
            "3",
        ],
        &["trace", "--nc", &over],
        &["skew", "--nc", &over],
        &["verify", "--max-nc", &over],
    ];
    for args in cases {
        let out = vecmem(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("exceeds") && stderr.contains(&limit),
            "{args:?} must name the limit {limit}: {stderr}"
        );
    }
}

#[test]
fn bank_cycle_at_the_limit_is_accepted() {
    let limit = MAX_BANK_CYCLE.to_string();
    let out = vecmem(&[
        "steady", "--banks", "2", "--nc", &limit, "--d1", "0", "--d2", "0",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
}

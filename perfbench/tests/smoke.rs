//! Smoke tests: every workload end to end at tiny bounds (`--smoke`),
//! checked against `BENCHMARK.json`, plus the pins' enforcement.

use std::collections::BTreeMap;
use std::process::Command;

use vecmem_oracle::conform::{sweep, SweepReport};
use vecmem_perfbench::workloads::{
    check_batch, check_sweep, gather_batch, parse_golden, pattern_mix, sweep_bounds, Body, Inputs,
    Kind, Scale, SMOKE_SWEEP_PINS, SMOKE_TIMED_PINS,
};

/// A JSON value, enough of it to read `BENCHMARK.json` and the result line.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing input after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.s[self.i];
            self.i += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    let e = self.s[self.i];
                    self.i += 1;
                    out.push(match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4]).unwrap();
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).unwrap()).unwrap()
                        }
                        other => other as char,
                    });
                }
                _ => {
                    // Copy one whole UTF-8 sequence.
                    let start = self.i - 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xc0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                }
            }
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let k = self.string();
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(text.parse().unwrap_or_else(|_| panic!("bad number {text}")))
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/"))
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn perfbench(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("perfbench runs");
    (
        out.status.code().expect("exit code"),
        String::from_utf8(out.stdout).expect("utf-8 output"),
    )
}

/// Runs one workload at smoke scale and checks its result line carries
/// exactly the declared metrics, each with its declared unit.
fn smoke(workload: &str, trace: u8) {
    let trace = trace.to_string();
    // Traced runs get a second, so that several traced passes run.
    let seconds = if trace == "0" { "0.01" } else { "1" };
    let (code, stdout) = perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        seconds,
        "--trace",
        &trace,
        "--smoke",
    ]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("manifest: {\"cpu\""), "{stdout}");
    assert!(stdout.contains("| seed 3 ("), "{stdout}");
    assert!(stdout.contains("metric failed_frac = 0 ratio"), "{stdout}");
    assert!(stdout.contains("metric scenarios_per_s = "), "{stdout}");
    assert!(stdout.contains("metric wall_s = "), "{stdout}");
    if workload == "verify_exhaustive" {
        // The whole sweep runs once per run, checked against every pin.
        assert!(
            stdout.contains("full sweep (oracle::conform::sweep"),
            "{stdout}"
        );
    }
    let result = Json::parse(stdout.lines().last().expect("a result line"));
    let Json::Obj(keys) = &result else {
        panic!("result is not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let section = if trace == "0" {
        "end_to_end"
    } else {
        "per_layer"
    };
    let Json::Obj(metrics) = result.get("metrics") else {
        panic!("metrics is not an object")
    };
    let mut printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").num().is_finite(), "{name}");
            (name.clone(), m.get("unit").str().to_string())
        })
        .collect();
    let mut want = declared(section);
    printed.sort();
    want.sort();
    assert_eq!(printed, want, "{workload} --trace {trace}");
    // Every metric is also printed as text with its unit and base.
    for (name, unit) in &want {
        assert!(
            stdout.contains(&format!("metric {name} = ")) && stdout.contains(&format!(" {unit} [")),
            "{name} missing from the text report"
        );
    }
    if trace == "1" {
        // Counts are per pass, however many traced passes ran.
        let v = |name: &str| metrics[name].get("value").num();
        assert_eq!(v("simcore.steady.calls"), v("exec.cache.misses"));
        assert_eq!(
            v("simcore.steady.mu_lambda_cycles"),
            v("simcore.step.cycles")
        );
        assert_eq!(v("exec.key.calls"), v("exec.runner.scenarios"));
        if workload == "verify_exhaustive" {
            // The traced pass covers the whole sweep; `wall_s` times its
            // first chunks.
            assert_eq!(v("exec.key.calls"), SMOKE_SWEEP_PINS.enumerated as f64);
            assert_eq!(
                v("oracle.conform.points"),
                SMOKE_TIMED_PINS.enumerated as f64
            );
        } else {
            assert_eq!(v("exec.key.calls"), v("oracle.conform.points"));
        }
        if workload != "verify_exhaustive" {
            // Each divergence the batches' oracle probe finds is printed.
            assert_eq!(
                stdout.matches("\nDIVERGED oracle probe at cycle ").count() as f64,
                v("oracle.diff.divergences"),
                "{stdout}"
            );
        }
        if v("oracle.diff.divergences") == 0.0 {
            // Each executed scenario is diffed over μ+λ+8 cycles.
            assert_eq!(
                v("oracle.diff.cycles"),
                v("simcore.steady.mu_lambda_cycles") + 8.0 * v("exec.cache.misses")
            );
        }
    }
}

#[test]
fn verify_exhaustive_smoke() {
    smoke("verify_exhaustive", 0);
    smoke("verify_exhaustive", 1);
}

#[test]
fn gather_long_period_smoke() {
    smoke("gather_long_period", 0);
    smoke("gather_long_period", 1);
}

#[test]
fn pattern_mix_smoke() {
    smoke("pattern_mix", 0);
    smoke("pattern_mix", 1);
}

#[test]
fn benchmark_json_names_every_workload() {
    let names: Vec<String> = benchmark_json()
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str().to_string())
        .collect();
    let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(names, ours);
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    for args in [
        &["--workload", "bogus"][..],
        &["--seed", "1"][..],
        &["--workload", "pattern_mix", "--trace", "2"][..],
        &["--workload", "pattern_mix", "--seconds", "0"][..],
    ] {
        let (code, stdout) = perfbench(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
}

#[test]
fn sweep_pins_are_enforced() {
    let runner = vecmem_exec::Runner::with_threads(1);
    let report = sweep(&sweep_bounds(Scale::Smoke), &runner);
    let pass = check_sweep(&report, &SMOKE_SWEEP_PINS);
    assert_eq!((pass.failed, pass.points), (0, SMOKE_SWEEP_PINS.enumerated));
    // One count off its pin fails the whole pass.
    let mut pins = SMOKE_SWEEP_PINS;
    pins.thm3 += 1;
    let pass = check_sweep(&report, &pins);
    assert_eq!(pass.failed, pass.points);
    assert!(
        pass.problems[0].contains("thm3_checked"),
        "{:?}",
        pass.problems
    );
    // A theorem violation fails its points even when the counts hold.
    let dirty = SweepReport {
        violation_count: 2,
        ..report
    };
    assert_eq!(check_sweep(&dirty, &SMOKE_SWEEP_PINS).failed, 2);
}

#[test]
fn chunked_sweep_pins_are_enforced() {
    let runner = vecmem_exec::Runner::with_threads(1);
    let mut inputs = Inputs::build(Kind::VerifyExhaustive, 0, Scale::Smoke).unwrap();
    let pass = inputs.run_pass(&runner);
    assert_eq!(pass.failed, 0, "{:?}", pass.problems);
    assert_eq!(
        (pass.points, pass.misses, pass.replayed),
        (
            SMOKE_TIMED_PINS.enumerated,
            SMOKE_TIMED_PINS.executed,
            SMOKE_TIMED_PINS.replayed
        )
    );
    assert_eq!(pass.part_ns.len(), 144, "one part per chunk");
    // One count off its pin fails the whole pass.
    if let Body::Sweep { timed_pins, .. } = &mut inputs.body {
        timed_pins.executed += 1;
    }
    let pass = inputs.run_pass(&runner);
    assert_eq!(pass.failed, pass.points);
    assert!(pass.problems[0].contains("executed"), "{:?}", pass.problems);
}

#[test]
fn batch_pins_are_enforced() {
    let pins = parse_golden(include_str!("../pins/gather_long_period.txt")).unwrap();
    let batch = gather_batch(Scale::Smoke);
    let (labels, scenarios): (Vec<String>, Vec<_>) = batch.into_iter().unzip();
    let mut expect: Vec<_> = labels.iter().map(|l| pins[l]).collect();
    let out = vecmem_exec::Runner::with_threads(1).run(&scenarios);
    assert_eq!(check_batch(&labels, &expect, &out).failed, 0);
    // One scenario off its pin fails exactly that scenario.
    expect[5].period += 1;
    let pass = check_batch(&labels, &expect, &out);
    assert_eq!(pass.failed, 1);
    assert!(
        pass.problems[0].starts_with(&labels[5]),
        "{:?}",
        pass.problems
    );
    // Malformed pin files are refused.
    assert!(parse_golden("m8-a0-a0 1 2 3 true").is_err());
    assert!(parse_golden("x 1 2 3/4 true\nx 1 2 3/4 true").is_err());
}

#[test]
fn pattern_mix_seed_changes_inputs_not_results() {
    let a = pattern_mix(1, Scale::Smoke);
    let b = pattern_mix(2, Scale::Smoke);
    assert_eq!(a.len(), 18);
    assert!(a
        .iter()
        .zip(&b)
        .all(|((la, sa), (lb, sb))| la == lb && sa.patterns != sb.patterns));
    // Both seeds meet the same pins (the relabelling is an isomorphism).
    for seed in [1, 2] {
        let inputs = Inputs::build(Kind::PatternMix, seed, Scale::Smoke).unwrap();
        let pass = inputs.run_pass(&vecmem_exec::Runner::with_threads(1));
        assert_eq!(pass.failed, 0, "seed {seed}: {:?}", pass.problems);
    }
}

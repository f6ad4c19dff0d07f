//! The three workloads: their inputs, set-up, one measured pass, and the
//! correctness pins every pass is checked against.
//!
//! Every pass runs serially through `Runner::with_threads(1)` with a fresh
//! result cache, so each pass repeats the same work and the cache counts
//! are exact (see `perfbench/README.md` for why).

use std::collections::BTreeMap;
use std::time::Instant;

use vecmem_analytic::numtheory::gcd;
use vecmem_analytic::{Geometry, StreamSpec};
use vecmem_exec::{CacheStats, PatternSteadyScenario, ResultCache, Runner, SteadyOutcome};
use vecmem_oracle::conform::{sweep, ConformOutcome, ConformScenario, SweepBounds, SweepReport};
use vecmem_simcore::{BankModel, CpuId, IndexPattern, PatternSpec, PriorityRule, SimConfig};

use crate::host::{host_probe, Fnv};

/// Pass time between two host-speed probes, in ns.
const PROBE_INTERVAL_NS: u64 = 100_000_000;

/// Times the parts of a pass and runs a host-speed probe between two
/// parts whenever `PROBE_INTERVAL_NS` of part time has passed (and at the
/// end of a pass that had none).
#[derive(Debug, Default)]
struct PartClock {
    part_ns: Vec<u64>,
    probe_ns: Vec<u64>,
    since_probe: u64,
}

impl PartClock {
    fn part(&mut self, ns: u64) {
        self.part_ns.push(ns);
        self.since_probe += ns;
        if self.since_probe >= PROBE_INTERVAL_NS {
            self.probe_ns.push(host_probe());
            self.since_probe = 0;
        }
    }

    fn finish(mut self, pass: &mut Pass) {
        if self.probe_ns.is_empty() {
            // A short pass still measures the host once.
            self.probe_ns.push(host_probe());
        }
        pass.part_ns = self.part_ns;
        pass.probe_ns = self.probe_ns;
    }
}

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `oracle::conform::sweep` over `SweepBounds::default()`.
    VerifyExhaustive,
    /// The affine gather batch of `steady_throughput`.
    GatherLongPeriod,
    /// Four-port seeded strided bursts over uniform and DRAM banks.
    PatternMix,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::VerifyExhaustive,
        Kind::GatherLongPeriod,
        Kind::PatternMix,
    ];

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::VerifyExhaustive => "verify_exhaustive",
            Self::GatherLongPeriod => "gather_long_period",
            Self::PatternMix => "pattern_mix",
        }
    }

    /// What the seed does for this workload.
    #[must_use]
    pub fn seed_note(self) -> &'static str {
        match self {
            Self::VerifyExhaustive | Self::GatherLongPeriod => {
                "ignored: fixed enumeration, the same inputs for every seed"
            }
            Self::PatternMix => "drives the start banks and distances of every scenario",
        }
    }
}

/// Input size: the real workloads, or tiny bounds for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The workloads as defined in `BENCHMARK.json`.
    Full,
    /// Tiny bounds: `max_banks` 6, the m = 8 gathers, offset 0 of each mix cell.
    Smoke,
}

/// Exact counts one serial conformance sweep must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPins {
    /// Points enumerated, cache replays included.
    pub enumerated: u64,
    /// Distinct scenarios simulated (cache misses).
    pub executed: u64,
    /// Points replayed from the isomorphism cache.
    pub replayed: u64,
    /// Thm 1 checks.
    pub thm1: u64,
    /// Thm 2 checks.
    pub thm2: u64,
    /// Thm 3 checks.
    pub thm3: u64,
    /// Thm 3 points skipped (self-conflicting stream).
    pub thm3_skipped: u64,
    /// §III-A checks.
    pub iiia: u64,
}

/// Pins of the default sweep (`max_banks` 16, `max_nc` 4, 3 ports).
pub const FULL_SWEEP_PINS: SweepPins = SweepPins {
    enumerated: 597_856,
    executed: 101_304,
    replayed: 496_552,
    thm1: 136,
    thm2: 40_968,
    thm3: 223_168,
    thm3_skipped: 51_792,
    iiia: 5_984,
};

/// Pins of the smoke sweep (`max_banks` 6).
pub const SMOKE_SWEEP_PINS: SweepPins = SweepPins {
    enumerated: 14_476,
    executed: 6_684,
    replayed: 7_792,
    thm1: 21,
    thm2: 880,
    thm3: 3_832,
    thm3_skipped: 2_876,
    iiia: 364,
};

/// Exact counts of the timed part of the sweep, run chunk by chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPins {
    /// Points enumerated, cache replays included.
    pub enumerated: u64,
    /// Distinct scenarios simulated (cache misses).
    pub executed: u64,
    /// Points replayed from the isomorphism cache.
    pub replayed: u64,
}

/// Pins of the timed part of the default sweep (`max_banks` 12).
pub const FULL_TIMED_PINS: ChunkPins = ChunkPins {
    enumerated: 197_288,
    executed: 46_632,
    replayed: 150_656,
};

/// Pins of the timed part of the smoke sweep (`max_banks` 4).
pub const SMOKE_TIMED_PINS: ChunkPins = ChunkPins {
    enumerated: 3_320,
    executed: 1_968,
    replayed: 1_352,
};

/// The part of the sweep a measured pass times: its chunks for
/// `m <= 12`, the first 432 of the default sweep's 576 chunks and about a
/// third of its time. A pass of the whole sweep takes 4 to 8 s, too long
/// for a run to time each chunk often enough (see `perfbench/README.md`).
#[must_use]
pub fn timed_bounds(scale: Scale) -> SweepBounds {
    SweepBounds {
        max_banks: match scale {
            Scale::Full => 12,
            Scale::Smoke => 4,
        },
        ..SweepBounds::default()
    }
}

/// The whole sweep, run once per run and checked against every pin.
#[must_use]
pub fn sweep_bounds(scale: Scale) -> SweepBounds {
    match scale {
        Scale::Full => SweepBounds::default(),
        Scale::Smoke => SweepBounds {
            max_banks: 6,
            ..SweepBounds::default()
        },
    }
}

/// The smaller sweep run as warm-up during set-up.
fn warm_bounds(scale: Scale) -> SweepBounds {
    SweepBounds {
        max_banks: match scale {
            Scale::Full => 8,
            Scale::Smoke => 3,
        },
        ..SweepBounds::default()
    }
}

/// Pinned result of one steady-state scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Golden {
    /// μ: clock periods before the cyclic state.
    pub transient: u64,
    /// λ: length of the cyclic state.
    pub period: u64,
    /// Exact `b_eff` as `(numerator, denominator)`.
    pub beff: (u64, u64),
    /// Whether the result is an exact recurrence.
    pub exact: bool,
}

impl Golden {
    fn of(outcome: &SteadyOutcome) -> Option<Self> {
        outcome.as_ref().ok().map(|ss| Self {
            transient: ss.transient,
            period: ss.period,
            beff: (ss.beff.num(), ss.beff.den()),
            exact: ss.exact,
        })
    }
}

/// `label transient period num/den exact` — one line of a pin file.
#[must_use]
pub fn golden_line(label: &str, outcome: &SteadyOutcome) -> String {
    match Golden::of(outcome) {
        Some(g) => format!(
            "{label} {} {} {}/{} {}",
            g.transient, g.period, g.beff.0, g.beff.1, g.exact
        ),
        None => format!("{label} not-converged"),
    }
}

/// Parses a pin file (`#` starts a comment line).
///
/// # Errors
/// On a malformed or duplicate line.
pub fn parse_golden(text: &str) -> Result<BTreeMap<String, Golden>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("pin line {}: malformed: {line}", i + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        let [label, transient, period, beff, exact] = f[..] else {
            return Err(bad());
        };
        let (num, den) = beff.split_once('/').ok_or_else(bad)?;
        let g = Golden {
            transient: transient.parse().map_err(|_| bad())?,
            period: period.parse().map_err(|_| bad())?,
            beff: (
                num.parse().map_err(|_| bad())?,
                den.parse().map_err(|_| bad())?,
            ),
            exact: exact.parse().map_err(|_| bad())?,
        };
        if out.insert(label.to_string(), g).is_some() {
            return Err(format!("pin line {}: duplicate label {label}", i + 1));
        }
    }
    Ok(out)
}

/// Cycle budget of the gather searches (the longest μ+λ is 457,708).
const GATHER_BUDGET: u64 = 500_000;
/// Cycle budget of the mix searches (the longest μ+λ is 376,071).
const MIX_BUDGET: u64 = 1_000_000;

/// The affine gather batch: every `(a1, a2)` multiplier pair on m = 8, 13
/// and 16, span 1024, offsets 0 and 1, cross-CPU.
#[must_use]
pub fn gather_batch(scale: Scale) -> Vec<(String, PatternSteadyScenario)> {
    let geoms: &[(u64, u64)] = match scale {
        Scale::Full => &[(8, 2), (13, 4), (16, 4)],
        Scale::Smoke => &[(8, 2)],
    };
    let mut out = Vec::new();
    for &(m, nc) in geoms {
        let geom = Geometry::unsectioned(m, nc).expect("valid geometry");
        for a1 in 0..m {
            for a2 in 0..m {
                let gather = |a, c| PatternSpec::Gather {
                    base: 0,
                    span: 1 << 10,
                    index: IndexPattern::Affine { a, c },
                };
                out.push((
                    format!("m{m}-a{a1}-a{a2}"),
                    PatternSteadyScenario {
                        config: SimConfig::one_port_per_cpu(geom, 2),
                        patterns: vec![gather(a1, 0), gather(a2, 1)],
                        max_cycles: GATHER_BUDGET,
                    },
                ));
            }
        }
    }
    out
}

/// SplitMix64: the benchmark's own generator, so inputs depend on the
/// seed alone and not on any generator inside the program.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seed of the fixed template every `pattern_mix` seed relabels.
const MIX_TEMPLATE_SEED: u64 = 6;

/// The four-port mix: m/s/n_c ∈ {32/32/4, 64/8/4, 64/64/8} × {Uniform,
/// DRAM hit 2 rows 4} × burst ∈ {1, 2, 4} × 7 distance offsets, two ports
/// on each of two CPUs, fixed priority.
///
/// A fixed template draws each cell's base distances and every start bank;
/// offset `j` adds `j` to the base distances. The run seed then relabels
/// each scenario's address space with an affine map `a ↦ u·a + c (mod M)`,
/// `gcd(u, M) = 1`, where `M = m` on uniform banks and `M = m·rows` on
/// DRAM banks. The map permutes banks and sections and, on DRAM banks,
/// keeps "same bank and row" intact, so it is an isomorphism of the
/// simulated system: the seed changes every start bank and distance the
/// program sees, but μ, λ and `b_eff` of each scenario, and so the work of
/// a pass, stay the same. One pin file therefore checks every seed.
#[must_use]
pub fn pattern_mix(seed: u64, scale: Scale) -> Vec<(String, PatternSteadyScenario)> {
    let mut template = SplitMix(MIX_TEMPLATE_SEED);
    let mut relabel = SplitMix(seed);
    let mut out = Vec::new();
    for (m, s, nc) in [(32u64, 32u64, 4u64), (64, 8, 4), (64, 64, 8)] {
        let geom = Geometry::new(m, s, nc).expect("valid geometry");
        for (model_name, model) in [
            ("uniform", BankModel::Uniform),
            (
                "dram",
                BankModel::Dram {
                    hit_cycle: 2,
                    rows: 4,
                },
            ),
        ] {
            let modulus = match model {
                BankModel::Uniform => m,
                BankModel::Dram { rows, .. } => m * rows,
            };
            let config = SimConfig {
                geometry: geom,
                ports: vec![CpuId(0), CpuId(0), CpuId(1), CpuId(1)],
                priority: PriorityRule::Fixed,
                bank_model: BankModel::Uniform,
            }
            .with_bank_model(model);
            for burst in [1u64, 2, 4] {
                let base: Vec<u64> = (0..4).map(|_| template.below(m)).collect();
                for j in 0..7u64 {
                    let u = loop {
                        let u = relabel.below(modulus);
                        if gcd(u, modulus) == 1 {
                            break u;
                        }
                    };
                    let c = relabel.below(modulus);
                    let patterns = base
                        .iter()
                        .map(|&b| {
                            let start = template.below(m);
                            let distance = (b + j) % m;
                            PatternSpec::Burst {
                                start_bank: (u * start + c) % modulus,
                                distance: (u * distance) % modulus,
                                burst,
                            }
                        })
                        .collect();
                    // The smoke scale keeps offset 0 of every cell; the
                    // template draws stay the same, so the pins still apply.
                    if scale == Scale::Smoke && j > 0 {
                        continue;
                    }
                    out.push((
                        format!("m{m}s{s}nc{nc}-{model_name}-b{burst}-j{j}"),
                        PatternSteadyScenario {
                            config: config.clone(),
                            patterns,
                            max_cycles: MIX_BUDGET,
                        },
                    ));
                }
            }
        }
    }
    out
}

/// What a pass runs.
#[derive(Debug)]
pub enum Body {
    /// The exhaustive conformance sweep.
    Sweep {
        /// Bounds of the whole sweep.
        bounds: SweepBounds,
        /// Counts it must reproduce.
        pins: SweepPins,
        /// Bounds of the part a measured pass times.
        timed: SweepBounds,
        /// Counts the timed part must reproduce.
        timed_pins: ChunkPins,
    },
    /// A batch of steady-state scenarios, each with its pinned result.
    Batch {
        /// Scenario labels (the pin-file keys), in run order.
        labels: Vec<String>,
        /// The scenarios.
        scenarios: Vec<PatternSteadyScenario>,
        /// Pinned result of each scenario.
        expect: Vec<Golden>,
        /// Length of the prefix run as warm-up.
        warm: usize,
    },
}

/// The inputs of one workload, built from its name, seed and scale.
#[derive(Debug)]
pub struct Inputs {
    /// Which workload.
    pub kind: Kind,
    /// Input size.
    pub scale: Scale,
    /// What a pass runs.
    pub body: Body,
}

/// Outcome of one measured pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Scenario points answered.
    pub points: u64,
    /// Points that failed a check.
    pub failed: u64,
    /// First few failure descriptions.
    pub problems: Vec<String>,
    /// Digest of every result of the pass.
    pub digest: u64,
    /// Points replayed from the result cache.
    pub replayed: u64,
    /// Distinct scenarios executed (cache misses).
    pub misses: u64,
    /// Sum of μ+λ over the executed scenarios (0 for the sweep, whose
    /// outcomes carry no μ or λ).
    pub mu_lambda: u64,
    /// Host ns of each part of the pass, in run order: one per scenario of
    /// a batch, one per chunk of the sweep (building the chunk and running
    /// it). Checking the results is not counted.
    pub part_ns: Vec<u64>,
    /// Host ns of each host-speed probe run between the parts, in order.
    pub probe_ns: Vec<u64>,
}

/// Failure descriptions kept per pass; `Pass::failed` keeps the total.
const KEEP_PROBLEMS: usize = 5;

impl Pass {
    fn problem(&mut self, text: String) {
        if self.problems.len() < KEEP_PROBLEMS {
            self.problems.push(text);
        }
    }
}

impl Inputs {
    /// Builds the inputs and loads the pins.
    ///
    /// # Errors
    /// When a pin file is malformed, lacks a scenario, or disagrees with
    /// the pinned totals.
    pub fn build(kind: Kind, seed: u64, scale: Scale) -> Result<Self, String> {
        let body = match kind {
            Kind::VerifyExhaustive => Body::Sweep {
                bounds: sweep_bounds(scale),
                pins: match scale {
                    Scale::Full => FULL_SWEEP_PINS,
                    Scale::Smoke => SMOKE_SWEEP_PINS,
                },
                timed: timed_bounds(scale),
                timed_pins: match scale {
                    Scale::Full => FULL_TIMED_PINS,
                    Scale::Smoke => SMOKE_TIMED_PINS,
                },
            },
            Kind::GatherLongPeriod => {
                let pins = parse_golden(include_str!("../pins/gather_long_period.txt"))?;
                check_gather_pins(&pins)?;
                batch_body(gather_batch(scale), &pins, 85)?
            }
            Kind::PatternMix => {
                let pins = parse_golden(include_str!("../pins/pattern_mix.txt"))?;
                batch_body(pattern_mix(seed, scale), &pins, 35)?
            }
        };
        Ok(Self { kind, scale, body })
    }

    /// Scenario points one measured pass answers.
    #[must_use]
    pub fn points(&self) -> u64 {
        match &self.body {
            Body::Sweep { timed_pins, .. } => timed_pins.enumerated,
            Body::Batch { scenarios, .. } => scenarios.len() as u64,
        }
    }

    /// Runs a fixed, seed-independent slice of the workload through the
    /// same path as a pass, so code and data are warm before timing.
    ///
    /// # Errors
    /// When the warm-up results fail their checks.
    pub fn warm_up(&self, runner: &Runner) -> Result<(), String> {
        let failed = match &self.body {
            Body::Sweep { .. } => {
                let report = sweep(&warm_bounds(self.scale), runner);
                !report.clean()
            }
            Body::Batch {
                labels,
                scenarios,
                expect,
                warm,
            } => {
                let n = (*warm).min(scenarios.len());
                let (out, _) = runner.run_cached(&scenarios[..n], &ResultCache::new());
                check_batch(&labels[..n], &expect[..n], &out).failed > 0
            }
        };
        if failed {
            return Err(format!(
                "{}: warm-up results failed their checks",
                self.kind.name()
            ));
        }
        Ok(())
    }

    /// One measured pass: the whole workload, part by part, then its
    /// checks. The batches run each scenario through
    /// `Runner::run_cached` with one result cache per pass; the sweep runs
    /// its chunks the same way, in the order `sweep` runs them.
    #[must_use]
    pub fn run_pass(&self, runner: &Runner) -> Pass {
        match &self.body {
            Body::Sweep {
                timed, timed_pins, ..
            } => {
                let cache = ResultCache::new();
                let mut check = ChunkCheck::default();
                let mut clock = PartClock::default();
                let mut mark = Instant::now();
                for_each_sweep_chunk(timed, |chunk| {
                    let (outcomes, _) = runner.run_cached(&chunk, &cache);
                    clock.part(nanos(mark));
                    check.add(&chunk, &outcomes);
                    mark = Instant::now();
                });
                let mut pass = check.finish(cache.stats(), timed_pins);
                clock.finish(&mut pass);
                pass
            }
            Body::Batch {
                labels,
                scenarios,
                expect,
                ..
            } => {
                let cache = ResultCache::new();
                let mut out = Vec::with_capacity(scenarios.len());
                let mut clock = PartClock::default();
                for scenario in scenarios {
                    let t = Instant::now();
                    let (result, _) = runner.run_cached(std::slice::from_ref(scenario), &cache);
                    clock.part(nanos(t));
                    out.extend(result);
                }
                let mut pass = check_batch(labels, expect, &out);
                let stats = cache.stats();
                pass.replayed = stats.hits;
                pass.misses = stats.misses;
                clock.finish(&mut pass);
                pass
            }
        }
    }

    /// The sweep as users run it: the program's own
    /// `oracle::conform::sweep`, checked against every pin, theorem
    /// counts included. `None` for the batches, whose measured passes
    /// already check every result against its pin.
    #[must_use]
    pub fn full_sweep(&self, runner: &Runner) -> Option<Pass> {
        match &self.body {
            Body::Sweep { bounds, pins, .. } => Some(check_sweep(&sweep(bounds, runner), pins)),
            Body::Batch { .. } => None,
        }
    }
}

/// Host ns since `t`.
#[must_use]
pub fn nanos(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Enumerates the conformance sweep's scenario chunks in the sweep's own
/// order (`vecmem_oracle::conform::sweep_observed`): per `(m, n_c)`, every
/// lone stream, then every pair `(d1, d2, b2)` and every aligned triple,
/// each over both topologies and both priority rules.
pub fn for_each_sweep_chunk(bounds: &SweepBounds, mut f: impl FnMut(Vec<ConformScenario>)) {
    let budget = bounds.steady_budget;
    let spec = |start_bank, distance| StreamSpec {
        start_bank,
        distance,
    };
    for m in 1..=bounds.max_banks {
        for nc in 1..=bounds.max_nc {
            let geom = Geometry::unsectioned(m, nc).expect("valid geometry");
            let scenario = |config: &SimConfig, streams| ConformScenario {
                config: config.clone(),
                streams,
                steady_budget: budget,
            };
            let lone = SimConfig::single_cpu(geom, 1);
            f((0..m)
                .flat_map(|d| (0..m).map(move |b| (d, b)))
                .map(|(d, b)| scenario(&lone, vec![spec(b, d)]))
                .collect());
            for ports in 2..=bounds.max_ports.min(3) {
                for cross in [true, false] {
                    for prio in [PriorityRule::Fixed, PriorityRule::Cyclic] {
                        let config = if cross {
                            SimConfig::one_port_per_cpu(geom, ports)
                        } else {
                            SimConfig::single_cpu(geom, ports)
                        }
                        .with_priority(prio);
                        let mut chunk = Vec::with_capacity((m * m * m) as usize);
                        for d1 in 0..m {
                            for d2 in 0..m {
                                for x in 0..m {
                                    chunk.push(scenario(
                                        &config,
                                        if ports == 2 {
                                            vec![spec(0, d1), spec(x, d2)]
                                        } else {
                                            vec![spec(0, d1), spec(0, d2), spec(0, x)]
                                        },
                                    ));
                                }
                            }
                        }
                        f(chunk);
                    }
                }
            }
        }
    }
}

/// Checks of a sweep run chunk by chunk: every scenario converged and
/// matched the oracle, and the cache counts equal their pins. The theorem
/// checks live inside `sweep`; [`Inputs::full_sweep`] covers them.
#[derive(Debug, Default)]
struct ChunkCheck {
    pass: Pass,
    digest: Fnv,
}

impl ChunkCheck {
    fn add(&mut self, chunk: &[ConformScenario], outcomes: &[ConformOutcome]) {
        for (scenario, out) in chunk.iter().zip(outcomes) {
            self.pass.points += 1;
            match out.beff {
                Some(beff) => {
                    self.digest.u64(beff.num());
                    self.digest.u64(beff.den());
                }
                None => self.digest.u64(u64::MAX),
            }
            self.digest.u64(u64::from(out.conflict_free));
            let problem = match (&out.beff, &out.divergence) {
                (_, Some((cycle, _))) => Some(format!("engines diverged at cycle {cycle}")),
                (None, None) => Some("did not converge".to_string()),
                (Some(_), None) => None,
            };
            if let Some(problem) = problem {
                self.pass.failed += 1;
                self.pass.problem(format!(
                    "{:?} streams {:?}: {problem}",
                    scenario.config, scenario.streams
                ));
            }
        }
    }

    fn finish(mut self, cache: CacheStats, pins: &ChunkPins) -> Pass {
        self.pass.replayed = cache.hits;
        self.pass.misses = cache.misses;
        let counts = [
            ("enumerated", self.pass.points, pins.enumerated),
            ("executed", cache.misses, pins.executed),
            ("replayed", cache.hits, pins.replayed),
        ];
        for (name, got, want) in counts {
            if got != want {
                self.pass.failed = self.pass.points.max(1);
                self.pass
                    .problem(format!("chunked sweep {name} = {got}, pinned {want}"));
            }
        }
        self.pass.digest = self.digest.finish();
        self.pass
    }
}

fn batch_body(
    labelled: Vec<(String, PatternSteadyScenario)>,
    pins: &BTreeMap<String, Golden>,
    warm: usize,
) -> Result<Body, String> {
    let mut expect = Vec::with_capacity(labelled.len());
    for (label, _) in &labelled {
        expect.push(
            *pins
                .get(label)
                .ok_or_else(|| format!("no pin for {label}"))?,
        );
    }
    let (labels, scenarios) = labelled.into_iter().unzip();
    Ok(Body::Batch {
        labels,
        scenarios,
        expect,
        warm,
    })
}

/// The gather totals the pin file must carry: Σ μ+λ over the batch, and
/// the longest scenario, m = 13 with a = (1, 11).
pub const GATHER_MU_LAMBDA: u64 = 4_077_440;
const GATHER_LONGEST: (&str, u64, u64) = ("m13-a1-a11", 2_867, 454_841);

fn check_gather_pins(pins: &BTreeMap<String, Golden>) -> Result<(), String> {
    let total: u64 = pins.values().map(|g| g.transient + g.period).sum();
    if total != GATHER_MU_LAMBDA {
        return Err(format!(
            "gather pins sum to {total} μ+λ cycles, expected {GATHER_MU_LAMBDA}"
        ));
    }
    let (label, mu, lambda) = GATHER_LONGEST;
    match pins.get(label) {
        Some(g) if g.transient == mu && g.period == lambda => Ok(()),
        other => Err(format!(
            "gather pin {label} is {other:?}, expected μ = {mu}, λ = {lambda}"
        )),
    }
}

/// Checks every result of a batch against its pin.
#[must_use]
pub fn check_batch(labels: &[String], expect: &[Golden], out: &[SteadyOutcome]) -> Pass {
    let mut pass = Pass {
        points: out.len() as u64,
        ..Pass::default()
    };
    let mut digest = Fnv::new();
    for ((label, want), got) in labels.iter().zip(expect).zip(out) {
        let got = Golden::of(got);
        match got {
            Some(g) => {
                digest.u64(g.beff.0);
                digest.u64(g.beff.1);
                digest.u64(g.transient);
                digest.u64(g.period);
                digest.u64(u64::from(g.exact));
                pass.mu_lambda += g.transient + g.period;
            }
            None => digest.u64(u64::MAX),
        }
        if got != Some(*want) || !want.exact {
            pass.failed += 1;
            pass.problem(format!("{label}: got {got:?}, pinned {want:?}"));
        }
    }
    pass.digest = digest.finish();
    pass
}

/// Checks a sweep report: a clean verdict, and every count equal to its
/// pin. A count that misses its pin fails every point of the pass, since
/// the report cannot say which point is at fault.
#[must_use]
pub fn check_sweep(report: &SweepReport, pins: &SweepPins) -> Pass {
    let mut pass = Pass {
        points: report.enumerated,
        failed: report.not_converged + report.divergence_count + report.violation_count,
        replayed: report.replayed,
        misses: report.executed,
        ..Pass::default()
    };
    for v in report.divergences.iter().chain(&report.violations) {
        pass.problem(v.to_string());
    }
    if report.not_converged > 0 {
        pass.problem(format!(
            "{} scenarios did not converge",
            report.not_converged
        ));
    }
    let counts = [
        ("enumerated", report.enumerated, pins.enumerated),
        ("executed", report.executed, pins.executed),
        ("replayed", report.replayed, pins.replayed),
        ("thm1_checked", report.thm1_checked, pins.thm1),
        ("thm2_checked", report.thm2_checked, pins.thm2),
        ("thm3_checked", report.thm3_checked, pins.thm3),
        ("thm3_skipped", report.thm3_skipped, pins.thm3_skipped),
        ("iiia_checked", report.iiia_checked, pins.iiia),
    ];
    let mut digest = Fnv::new();
    for (name, got, want) in counts {
        digest.u64(got);
        if got != want {
            pass.failed = pass.failed.max(report.enumerated.max(1));
            pass.problem(format!("sweep {name} = {got}, pinned {want}"));
        }
    }
    pass.digest = digest.finish();
    pass
}

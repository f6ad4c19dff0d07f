//! The traced pass and the per-layer probes.
//!
//! Nothing inside the program is instrumented: every timing here wraps
//! one of the benchmark's own calls into a crate's public functions.
//!
//! * The **traced pass** re-drives the workload through
//!   `Runner::run_cached`, exactly as a pass does, but with each scenario
//!   wrapped so that its key (`vecmem-exec`), its steady-state search
//!   (the program's own `measure_steady_state*` entry points) and, for the
//!   sweep, its lockstep diff (`vecmem-oracle`) are timed call by call.
//! * The **probes** replay the scenarios the traced pass executed through
//!   one layer at a time, in tight loops: scenario set-up, the `step()`
//!   kernel, `arbitrate_into`, `AccessPattern::advance`, the analytic pair
//!   conditions and, for the batches, `run_pair_patterns`.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

use vecmem_analytic::pair::{conflict_free_condition, disjoint_sets_achievable};
use vecmem_analytic::StreamSpec;
use vecmem_banksim::measure_steady_state;
use vecmem_exec::{PatternSteadyScenario, ResultCache, Runner, Scenario, SteadyOutcome};
use vecmem_oracle::conform::{ConformOutcome, ConformScenario};
use vecmem_oracle::diff::{run_pair, run_pair_patterns, DiffOutcome};
use vecmem_simcore::{
    arbitrate_into, step, AccessPattern, NoopObserver, ObservableWorkload, PatternSpec,
    PatternWorkload, PortId, Request, SimConfig, SimState, StridePattern, Workload,
};

use crate::workloads::{check_batch, for_each_sweep_chunk, nanos, Body, Inputs, Pass};

/// One executed (cache-missing) scenario, kept for the probes.
#[derive(Debug, Clone)]
pub struct Executed {
    config: SimConfig,
    ports: Ports,
    /// μ+λ of its steady state (0 when the search failed).
    cycles: u64,
}

#[derive(Debug, Clone)]
enum Ports {
    Streams(Vec<StreamSpec>),
    Patterns(Vec<PatternSpec>),
}

/// Accumulators of one traced pass. Relaxed atomics: they are plain
/// statistics, and the pass runs on one thread.
#[derive(Debug, Default)]
struct Timers {
    key_ns: AtomicU64,
    key_calls: AtomicU64,
    exec_ns: AtomicU64,
    steady_ns: AtomicU64,
    mu_lambda: AtomicU64,
    diff_ns: AtomicU64,
    diff_cycles: AtomicU64,
    diff_divergences: AtomicU64,
    /// Host ns of each steady-state search, and the executed scenarios.
    calls: Mutex<(Vec<u64>, Vec<Executed>)>,
}

impl Timers {
    fn steady(&self, ns: u64, outcome: &SteadyOutcome, config: &SimConfig, ports: Ports) {
        let cycles = outcome.as_ref().map_or(0, |ss| ss.transient + ss.period);
        self.steady_ns.fetch_add(ns, Relaxed);
        self.mu_lambda.fetch_add(cycles, Relaxed);
        let mut calls = self
            .calls
            .lock()
            .expect("timer lock poisoned by a panicking scenario");
        calls.0.push(ns);
        calls.1.push(Executed {
            config: config.clone(),
            ports,
            cycles,
        });
    }

    fn diff(&self, ns: u64, outcome: &DiffOutcome) {
        let cycles = match outcome {
            DiffOutcome::Match { cycles, .. } => *cycles,
            DiffOutcome::Diverged(d) => {
                self.diff_divergences.fetch_add(1, Relaxed);
                d.cycle + 1
            }
        };
        self.diff_ns.fetch_add(ns, Relaxed);
        self.diff_cycles.fetch_add(cycles, Relaxed);
    }
}

/// A scenario whose execution the traced pass can time layer by layer.
trait Layered: Scenario {
    fn layer_execute(&self, t: &Timers) -> Self::Output;
}

impl Layered for ConformScenario {
    /// `ConformScenario::execute`, split at the layer boundary: the
    /// program's steady-state entry point, then the lockstep diff over
    /// μ+λ+8 cycles (the horizon rule of `execute`, which the split has to
    /// repeat).
    fn layer_execute(&self, t: &Timers) -> ConformOutcome {
        let start = Instant::now();
        let steady = measure_steady_state(&self.config, &self.streams, self.steady_budget);
        t.steady(
            nanos(start),
            &steady,
            &self.config,
            Ports::Streams(self.streams.clone()),
        );
        let (beff, conflict_free, horizon) = match &steady {
            Ok(ss) => (
                Some(ss.beff),
                ss.conflict_free(),
                ss.transient + ss.period + 8,
            ),
            Err(_) => (None, false, 1024),
        };
        let start = Instant::now();
        let diff = run_pair(&self.config, &self.streams, horizon);
        t.diff(nanos(start), &diff);
        ConformOutcome {
            beff,
            conflict_free,
            divergence: match diff {
                DiffOutcome::Match { .. } => None,
                DiffOutcome::Diverged(d) => Some((d.cycle, d.report)),
            },
        }
    }
}

impl Layered for PatternSteadyScenario {
    /// The scenario's own `execute`, which is the program's
    /// `measure_steady_state_patterns`.
    fn layer_execute(&self, t: &Timers) -> SteadyOutcome {
        let start = Instant::now();
        let steady = self.execute();
        t.steady(
            nanos(start),
            &steady,
            &self.config,
            Ports::Patterns(self.patterns.clone()),
        );
        steady
    }
}

/// The runner sees this wrapper in place of the scenario: same key, same
/// output, with the time of each call recorded.
struct Traced<'a, S> {
    inner: &'a S,
    timers: &'a Timers,
}

impl<S: Layered> Scenario for Traced<'_, S> {
    type Output = S::Output;
    type Key = S::Key;

    fn key(&self) -> Option<S::Key> {
        let start = Instant::now();
        let key = self.inner.key();
        self.timers.key_ns.fetch_add(nanos(start), Relaxed);
        self.timers.key_calls.fetch_add(1, Relaxed);
        key
    }

    fn execute(&self) -> S::Output {
        let start = Instant::now();
        let out = self.inner.layer_execute(self.timers);
        self.timers.exec_ns.fetch_add(nanos(start), Relaxed);
        out
    }
}

/// One traced pass: its wall time, its checks, and its layer timers.
#[derive(Debug)]
pub struct TracedPass {
    /// Host seconds of the whole traced pass.
    pub wall_s: f64,
    /// Host ns spent inside `Runner::run_cached`.
    run_ns: u64,
    /// The pass's checks (batches) or cache counts (sweep).
    pub pass: Pass,
    timers: Timers,
}

/// Runs one traced pass of the workload.
#[must_use]
pub fn traced_pass(inputs: &Inputs, runner: &Runner) -> TracedPass {
    let timers = Timers::default();
    let start = Instant::now();
    let mut run_ns = 0;
    let mut pass = Pass::default();
    match &inputs.body {
        Body::Sweep { bounds, .. } => {
            let cache = ResultCache::new();
            for_each_sweep_chunk(bounds, |chunk| {
                let traced: Vec<_> = chunk
                    .iter()
                    .map(|inner| Traced {
                        inner,
                        timers: &timers,
                    })
                    .collect();
                let t = Instant::now();
                let (outcomes, exec) = runner.run_cached(&traced, &cache);
                run_ns += nanos(t);
                pass.points += outcomes.len() as u64;
                pass.replayed += exec.cache.hits;
                pass.misses += exec.cache.misses;
                let failed = outcomes
                    .iter()
                    .filter(|o| o.beff.is_none() || o.divergence.is_some())
                    .count();
                pass.failed += failed as u64;
            });
        }
        Body::Batch {
            labels,
            scenarios,
            expect,
            ..
        } => {
            let traced: Vec<_> = scenarios
                .iter()
                .map(|inner| Traced {
                    inner,
                    timers: &timers,
                })
                .collect();
            let t = Instant::now();
            let (out, exec) = runner.run_cached(&traced, &ResultCache::new());
            run_ns = nanos(t);
            pass = check_batch(labels, expect, &out);
            pass.replayed = exec.cache.hits;
            pass.misses = exec.cache.misses;
        }
    }
    TracedPass {
        wall_s: start.elapsed().as_secs_f64(),
        run_ns,
        pass,
        timers,
    }
}

/// Host ns per unit of work over `units` units.
fn per(ns: u64, units: u64) -> f64 {
    ns as f64 / units.max(1) as f64
}

/// One per-layer figure: a value, its unit, and the base it rests on.
#[derive(Debug, Clone)]
pub struct LayerFigure {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The count or sample the value rests on.
    pub base: String,
}

fn fig(name: &'static str, value: f64, unit: &'static str, base: String) -> LayerFigure {
    LayerFigure {
        name,
        value,
        unit,
        base,
    }
}

fn count(name: &'static str, n: u64, what: &str) -> LayerFigure {
    fig(name, n as f64, "count", format!("exact {what}, one pass"))
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual percentiles with at least ten samples above it.
fn tail_percentile(n: usize) -> f64 {
    [99.999, 99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// Minimum host time of a repeated probe loop, so that short loops are
/// timed over many repetitions.
const MIN_PROBE_NS: u64 = 50_000_000;

/// Runs `body` (which does `units` units of work) until `MIN_PROBE_NS`
/// have passed; returns host ns per unit.
fn repeat(units: u64, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut total = 0;
    loop {
        body();
        total += units;
        let ns = nanos(start);
        if ns >= MIN_PROBE_NS || units == 0 {
            return per(ns, total);
        }
    }
}

/// Scenario set-up as the steady search does it: configuration, pattern
/// workload, packed state.
fn setup_probe(executed: &[Executed]) -> f64 {
    repeat(executed.len() as u64, || {
        for e in executed {
            let config = e.config.clone();
            match &e.ports {
                Ports::Streams(s) => {
                    let w = PatternWorkload::strided(&config.geometry, black_box(s));
                    let state = SimState::with_signature_slots(&config, w.signature_len());
                    black_box((&config, &w, &state));
                }
                Ports::Patterns(p) => {
                    let w = PatternWorkload::from_specs(&config, black_box(p));
                    let state = SimState::with_signature_slots(&config, w.signature_len());
                    black_box((&config, &w, &state));
                }
            }
        }
    })
}

fn step_loop<P: AccessPattern>(config: &SimConfig, mut w: PatternWorkload<P>, cycles: u64) -> u64 {
    let mut state = SimState::new(config);
    let start = Instant::now();
    for _ in 0..cycles {
        black_box(step(config, &mut state, &mut w, &mut NoopObserver));
    }
    nanos(start)
}

/// `step()` over each executed scenario's own μ+λ cycles, from reset.
fn step_probe(executed: &[Executed]) -> (u64, u64) {
    let mut ns = 0;
    let mut cycles = 0;
    for e in executed {
        ns += match &e.ports {
            Ports::Streams(s) => step_loop(
                &e.config,
                PatternWorkload::strided(&e.config.geometry, s),
                e.cycles,
            ),
            Ports::Patterns(p) => step_loop(
                &e.config,
                PatternWorkload::from_specs(&e.config, p),
                e.cycles,
            ),
        };
        cycles += e.cycles;
    }
    (ns, cycles)
}

/// Arbitration inputs recorded from the executed scenarios.
const ARB_RECORDS: u64 = 200_000;

struct ArbInput {
    config: usize,
    rotation: usize,
    busy: u64,
    requests: std::ops::Range<usize>,
}

fn record_arbitrations<P: AccessPattern>(
    config: &SimConfig,
    index: usize,
    mut w: PatternWorkload<P>,
    cycles: u64,
    inputs: &mut Vec<ArbInput>,
    requests: &mut Vec<(PortId, Request)>,
) {
    let mut state = SimState::new(config);
    for _ in 0..cycles {
        let now = state.now();
        let first = requests.len();
        for p in 0..config.num_ports() {
            if let Some(req) = w.pending(PortId(p), now) {
                requests.push((PortId(p), req));
            }
        }
        let busy = (0..config.geometry.banks())
            .filter(|&b| state.residue(b) > 0)
            .fold(0u64, |mask, b| mask | 1 << b);
        inputs.push(ArbInput {
            config: index,
            rotation: state.rotation(),
            busy,
            requests: first..requests.len(),
        });
        step(config, &mut state, &mut w, &mut NoopObserver);
    }
}

/// `arbitrate_into` over requests recorded from the first cycles of every
/// executed scenario (up to `ARB_RECORDS` calls in all).
fn arbitrate_probe(executed: &[Executed]) -> (f64, u64) {
    let per_scenario = ARB_RECORDS.div_ceil(executed.len().max(1) as u64);
    let mut inputs = Vec::new();
    let mut requests = Vec::new();
    for (i, e) in executed.iter().enumerate() {
        let cycles = e.cycles.min(per_scenario);
        match &e.ports {
            Ports::Streams(s) => record_arbitrations(
                &e.config,
                i,
                PatternWorkload::strided(&e.config.geometry, s),
                cycles,
                &mut inputs,
                &mut requests,
            ),
            Ports::Patterns(p) => record_arbitrations(
                &e.config,
                i,
                PatternWorkload::from_specs(&e.config, p),
                cycles,
                &mut inputs,
                &mut requests,
            ),
        }
    }
    let mut outcomes = Vec::with_capacity(8);
    let calls = inputs.len() as u64;
    let ns = repeat(calls, || {
        for a in &inputs {
            arbitrate_into(
                &executed[a.config].config,
                a.rotation,
                |b| a.busy >> b & 1 == 1,
                &requests[a.requests.clone()],
                &mut outcomes,
            );
            black_box(&outcomes);
        }
    });
    (ns, calls)
}

fn advance_loop<P: AccessPattern>(pattern: &P, steps: u64) -> u64 {
    let pattern = black_box(pattern);
    let mut prev = pattern.request_at(0);
    let start = Instant::now();
    for k in 1..=steps {
        prev = black_box(pattern.advance(k, &prev));
    }
    nanos(start)
}

/// `AccessPattern::advance` over μ+λ requests of every executed port.
fn advance_probe(executed: &[Executed]) -> (u64, u64) {
    let mut ns = 0;
    let mut advances = 0;
    for e in executed {
        match &e.ports {
            Ports::Streams(s) => {
                for &spec in s {
                    ns += advance_loop(&StridePattern::new(&e.config.geometry, spec), e.cycles);
                    advances += e.cycles;
                }
            }
            Ports::Patterns(p) => {
                for spec in p {
                    ns += advance_loop(&spec.build(&e.config), e.cycles);
                    advances += e.cycles;
                }
            }
        }
    }
    (ns, advances)
}

/// Bank distance of a port, for the analytic pair conditions (the
/// multiplier of an affine gather).
fn distance(spec: &PatternSpec) -> u64 {
    match *spec {
        PatternSpec::Stride { distance, .. } | PatternSpec::Burst { distance, .. } => distance,
        PatternSpec::Gather { index, .. } => match index {
            vecmem_simcore::IndexPattern::Affine { a, .. } => a,
            vecmem_simcore::IndexPattern::PseudoRandom { .. } => 1,
        },
    }
}

/// `conflict_free_condition` and `disjoint_sets_achievable` on the first
/// two ports of every executed multi-port scenario.
fn analytic_probe(executed: &[Executed]) -> (f64, u64) {
    let pairs: Vec<_> = executed
        .iter()
        .filter_map(|e| {
            let (d1, d2) = match &e.ports {
                Ports::Streams(s) if s.len() >= 2 => (s[0].distance, s[1].distance),
                Ports::Patterns(p) if p.len() >= 2 => (distance(&p[0]), distance(&p[1])),
                _ => return None,
            };
            let m = e.config.geometry.banks();
            Some((e.config.geometry, d1 % m, d2 % m))
        })
        .collect();
    let calls = 2 * pairs.len() as u64;
    let ns = repeat(calls, || {
        for (geom, d1, d2) in &pairs {
            black_box(conflict_free_condition(black_box(geom), *d1, *d2));
            black_box(disjoint_sets_achievable(black_box(geom), *d1, *d2));
        }
    });
    (ns, calls)
}

/// `run_pair_patterns` over each executed batch scenario's μ+λ+8 cycles;
/// returns (ns, cycles compared, divergences). Prints a `DIVERGED` line
/// for every scenario on which the engine and the oracle disagree.
fn oracle_probe(executed: &[Executed]) -> (u64, u64, u64) {
    let timers = Timers::default();
    for e in executed {
        if let Ports::Patterns(p) = &e.ports {
            let start = Instant::now();
            let outcome = run_pair_patterns(&e.config, p, e.cycles + 8);
            timers.diff(nanos(start), &outcome);
            if let DiffOutcome::Diverged(d) = outcome {
                let first = d.report.lines().next().unwrap_or_default();
                println!(
                    "DIVERGED oracle probe at cycle {}: {first}, patterns {p:?}",
                    d.cycle
                );
            }
        }
    }
    (
        timers.diff_ns.into_inner(),
        timers.diff_cycles.into_inner(),
        timers.diff_divergences.into_inner(),
    )
}

/// Every per-layer figure, from the traced passes (all of the same
/// workload; counts are taken from the first), the probes, the run's
/// untraced `wall_s`, and the fastest of the untraced passes that ran
/// between the traced ones.
#[must_use]
pub fn layer_figures(
    inputs: &Inputs,
    traced: &[TracedPass],
    untraced_wall_s: f64,
    paired_wall_s: f64,
) -> Vec<LayerFigure> {
    let first = &traced[0];
    let sum = |f: fn(&Timers) -> &AtomicU64| {
        traced
            .iter()
            .map(|t| f(&t.timers).load(Relaxed))
            .sum::<u64>()
    };
    let once = |f: fn(&Timers) -> &AtomicU64| f(&first.timers).load(Relaxed);
    let recorded = first
        .timers
        .calls
        .lock()
        .expect("timer lock poisoned by a panicking scenario");
    let (samples, executed) = (&recorded.0, &recorded.1);
    let mut figures = Vec::new();

    figures.push(fig(
        "simcore.setup.ns_per_scenario",
        setup_probe(executed),
        "ns",
        format!("{} executed scenarios, repeated", executed.len()),
    ));
    figures.push(count(
        "simcore.setup.scenarios",
        executed.len() as u64,
        "executed scenarios",
    ));

    let (step_ns, step_cycles) = step_probe(executed);
    let step_ns_per_cycle = per(step_ns, step_cycles);
    figures.push(fig(
        "simcore.step.ns_per_cycle",
        step_ns_per_cycle,
        "ns",
        format!("{step_cycles} cycles stepped"),
    ));
    figures.push(count("simcore.step.cycles", step_cycles, "cycles stepped"));

    let (ns, calls) = arbitrate_probe(executed);
    figures.push(fig(
        "simcore.arbitrate.ns_per_call",
        ns,
        "ns",
        format!("{calls} recorded arbitrations, repeated"),
    ));
    figures.push(count(
        "simcore.arbitrate.calls",
        calls,
        "arbitrate_into calls",
    ));

    let (ns, advances) = advance_probe(executed);
    figures.push(fig(
        "simcore.pattern.ns_per_advance",
        per(ns, advances),
        "ns",
        format!("{advances} advances"),
    ));
    figures.push(count("simcore.pattern.advances", advances, "advances"));

    let steady_ns_per_cycle = per(sum(|t| &t.steady_ns), sum(|t| &t.mu_lambda));
    figures.push(fig(
        "simcore.steady.ns_per_cycle",
        steady_ns_per_cycle,
        "ns",
        format!(
            "{} μ+λ cycles over {} traced passes",
            sum(|t| &t.mu_lambda),
            traced.len()
        ),
    ));
    figures.push(fig(
        "simcore.steady.search_ratio",
        steady_ns_per_cycle / step_ns_per_cycle.max(f64::MIN_POSITIVE),
        "ratio",
        format!("steady ns/cycle over step ns/cycle, {step_cycles} cycles each"),
    ));
    figures.push(count(
        "simcore.steady.mu_lambda_cycles",
        once(|t| &t.mu_lambda),
        "μ+λ cycles",
    ));
    let searches = samples.len() as u64;
    figures.push(count(
        "simcore.steady.calls",
        searches,
        "steady-state searches",
    ));
    let mut samples = samples.clone();
    samples.sort_unstable();
    let tail = tail_percentile(samples.len());
    figures.push(fig(
        "simcore.steady.scenario_p50_us",
        percentile(&samples, 50.0) as f64 / 1e3,
        "us",
        format!("{searches} searches"),
    ));
    figures.push(fig(
        "simcore.steady.scenario_tail_us",
        percentile(&samples, tail) as f64 / 1e3,
        "us",
        format!("p{tail} of {searches} searches"),
    ));

    figures.push(fig(
        "exec.key.ns_per_call",
        per(sum(|t| &t.key_ns), sum(|t| &t.key_calls)),
        "ns",
        format!("{} key calls", sum(|t| &t.key_calls)),
    ));
    figures.push(count("exec.key.calls", once(|t| &t.key_calls), "key calls"));
    let (hits, misses) = (first.pass.replayed, first.pass.misses);
    figures.push(fig(
        "exec.cache.hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        format!("{hits} hits, {misses} misses"),
    ));
    figures.push(count("exec.cache.misses", misses, "cache misses"));
    figures.push(count("exec.cache.replayed", hits, "cache replays"));
    let run_ns: u64 = traced.iter().map(|t| t.run_ns).sum();
    let direct_ns = sum(|t| &t.key_ns) + sum(|t| &t.exec_ns);
    figures.push(fig(
        "exec.runner.overhead_frac",
        (run_ns as f64 - direct_ns as f64) / run_ns.max(1) as f64,
        "ratio",
        format!("run_cached {run_ns} ns vs {direct_ns} ns in key + execute"),
    ));
    figures.push(count(
        "exec.runner.scenarios",
        first.pass.points,
        "scenarios run",
    ));

    // The sweep diffs inside every traced pass: time over all of them,
    // counts from one. The batches diff once, in the probe.
    let (diff_ns, diff_cycles, pass_cycles, divergences) = match &inputs.body {
        Body::Sweep { .. } => (
            sum(|t| &t.diff_ns),
            sum(|t| &t.diff_cycles),
            once(|t| &t.diff_cycles),
            once(|t| &t.diff_divergences),
        ),
        Body::Batch { .. } => {
            let (ns, cycles, divergences) = oracle_probe(executed);
            (ns, cycles, cycles, divergences)
        }
    };
    figures.push(fig(
        "oracle.diff.ns_per_cycle",
        per(diff_ns, diff_cycles),
        "ns",
        format!("{diff_cycles} cycles compared"),
    ));
    figures.push(count("oracle.diff.cycles", pass_cycles, "cycles compared"));
    figures.push(count(
        "oracle.diff.divergences",
        divergences,
        "scenarios where run_pair disagreed",
    ));
    let points = inputs.points();
    figures.push(fig(
        "oracle.conform.ns_per_point",
        untraced_wall_s * 1e9 / points.max(1) as f64,
        "ns",
        format!("untraced wall_s over {points} points"),
    ));
    figures.push(count("oracle.conform.points", points, "points"));

    let (ns, calls) = analytic_probe(executed);
    figures.push(fig(
        "analytic.pair.ns_per_call",
        ns,
        "ns",
        format!("{calls} calls, repeated"),
    ));
    figures.push(count("analytic.pair.calls", calls, "pair-condition calls"));

    let walls: Vec<f64> = traced.iter().map(|t| t.wall_s).collect();
    let traced_wall = crate::fastest(&walls);
    figures.push(fig(
        "trace.wall_s",
        traced_wall,
        "s",
        format!("fastest of {} traced passes", traced.len()),
    ));
    figures.push(fig(
        "trace.overhead_frac",
        traced_wall / paired_wall_s - 1.0,
        "ratio",
        format!(
            "fastest traced {traced_wall:.4} s vs fastest of {} untraced passes \
             interleaved with them {paired_wall_s:.4} s",
            traced.len()
        ),
    ));
    figures
}

//! The vecmem benchmark: end-to-end and per-layer metrics of three
//! workloads, each checked against its correctness pins on every pass.
//!
//! `perfbench/README.md` records why each workload was chosen, why every
//! run is serial, and what each metric should move.

pub mod host;
pub mod layers;
pub mod workloads;

use std::time::Instant;

use vecmem_exec::Runner;
use vecmem_obs::Json;

use crate::host::{peak_rss, Manifest, PROBE_REFERENCE_S};
use crate::layers::{layer_figures, traced_pass, LayerFigure};
use crate::workloads::{Inputs, Kind, Pass, Scale};

/// Passes per run at the least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// End-to-end metrics (`--trace 0`), with units, as in `BENCHMARK.json`.
/// `wall_s`, `scenarios_per_s` and `failed_frac` are printed beside them
/// but are not in the result line: `wall_s` moves with the host's speed
/// between runs, which `wall_ref_s` divides out; `scenarios_per_s` is
/// points over `wall_s`; `failed_frac` is 0 on every correct run, which
/// the `failed` field already carries.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB")];

/// A run of the benchmark, as given on the command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds: passes repeat until this much time has passed
    /// (and at least `MIN_PASSES` ran).
    pub seconds: f64,
    /// Per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
#[must_use]
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fastest of a non-empty sample.
#[must_use]
pub fn fastest(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Fastest time of each part of a pass over a run's passes. Every pass
/// does the same, fixed work part by part, so the host's contention can
/// only add to a part's time; the sum of the parts' fastest times is the
/// pass with every part at its least disturbed. A part is small (one
/// scenario, one sweep chunk), so each part meets a quiet moment of the
/// host somewhere in the run even when no whole pass does.
///
/// The host-speed probes between the parts are kept the same way, slot by
/// slot (the `i`-th probe of each pass), so that the probe and the parts
/// are measured with the same statistic.
#[derive(Debug, Default)]
struct BestParts(Vec<u64>);

impl BestParts {
    fn add(&mut self, part_ns: &[u64]) {
        if self.0.is_empty() {
            self.0 = part_ns.to_vec();
        }
        // Probe slots: keep those every pass had.
        self.0.truncate(part_ns.len());
        for (best, &ns) in self.0.iter_mut().zip(part_ns) {
            *best = (*best).min(ns);
        }
    }

    fn seconds(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64 * 1e-9
    }

    fn mean_seconds(&self) -> f64 {
        self.seconds() / self.0.len().max(1) as f64
    }
}

/// Failure tally across every pass of a run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, label: &str, pass: &Pass) {
        self.attempted += pass.points;
        self.failed += pass.failed;
        for p in &pass.problems {
            println!("FAILED {label}: {p}");
        }
    }
}

/// Every pass must reproduce the first one exactly.
fn check_repeats(first: &Pass, pass: &mut Pass) {
    if first.digest != pass.digest {
        pass.failed = pass.points;
        pass.problems
            .push("results differ from the first pass".to_string());
    }
}

/// Set-ups and untraced passes of one run.
struct Measured {
    /// The inputs the last set-up built.
    inputs: Inputs,
    /// Seconds of each set-up.
    setups: Vec<f64>,
    /// Wall time of each pass.
    walls: Vec<f64>,
    /// Each part's fastest time over the passes.
    best: BestParts,
    /// Each probe slot's fastest time over the passes.
    probes: BestParts,
    /// Every probe of every pass, in seconds.
    all_probes: Vec<f64>,
    /// The first pass.
    first: Pass,
    /// The checked full sweep (`verify_exhaustive` only).
    full: Option<Pass>,
    /// Peak RSS after the first set-up, full sweep and pass, in MiB: the
    /// memory one run of the workload needs, independent of how many
    /// passes fit.
    peak_rss_mb: f64,
}

/// Builds the inputs and runs the warm-up; returns them with the seconds
/// since `start`.
fn set_up(o: &Options, runner: &Runner, start: Instant) -> Result<(Inputs, f64), String> {
    let inputs = Inputs::build(o.kind, o.seed, o.scale)?;
    inputs.warm_up(runner)?;
    Ok((inputs, start.elapsed().as_secs_f64()))
}

/// Runs set-up and pass pairs for `o.seconds` (and at least
/// `MIN_PASSES`). Each pass gets its own set-up, so the set-ups sample the
/// whole run as the passes do: the host's speed changes in phases from
/// fractions of a second to minutes, and set-ups bunched at the start of a
/// run would see only one phase. The first set-up is timed from process
/// start.
fn measure(
    o: &Options,
    runner: &Runner,
    process_start: Instant,
    tally: &mut Tally,
) -> Result<Measured, String> {
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut best = BestParts::default();
    let mut probes = BestParts::default();
    let mut all_probes = Vec::new();
    let mut first: Option<Pass> = None;
    let mut full = None;
    let mut built = None;
    let mut peak_rss_mb = None;
    let mut start = Instant::now();
    while walls.len() < MIN_PASSES || start.elapsed().as_secs_f64() < o.seconds {
        let t = if setups.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let (inputs, setup) = set_up(o, runner, t)?;
        setups.push(setup);
        if setups.len() == 1 {
            // The whole sweep, once, before the measured passes: it checks
            // every pin, and the run's peak memory includes it.
            full = inputs.full_sweep(runner);
            if let Some(pass) = &full {
                println!(
                    "full sweep (oracle::conform::sweep, every pin, not timed): {} points, \
                     {} failed, {} cache misses, {} replayed, digest {:016x}",
                    pass.points, pass.failed, pass.misses, pass.replayed, pass.digest
                );
                tally.add("full sweep", pass);
            }
            start = Instant::now();
        }
        let mut pass = inputs.run_pass(runner);
        let wall = pass.part_ns.iter().sum::<u64>() as f64 * 1e-9;
        check_repeats(first.get_or_insert_with(|| pass.clone()), &mut pass);
        best.add(&pass.part_ns);
        probes.add(&pass.probe_ns);
        all_probes.extend(pass.probe_ns.iter().map(|&ns| ns as f64 * 1e-9));
        println!(
            "pass {}: set-up {setup:.4} s, pass {wall:.4} s ({} parts), {} points, {} failed, \
             {} cache misses, {} replayed, {} μ+λ cycles, digest {:016x}",
            walls.len() + 1,
            pass.part_ns.len(),
            pass.points,
            pass.failed,
            pass.misses,
            pass.replayed,
            pass.mu_lambda,
            pass.digest
        );
        tally.add("pass", &pass);
        walls.push(wall);
        built = Some(inputs);
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(peak_rss()?);
        }
    }
    Ok(Measured {
        inputs: built.expect("at least one pass ran"),
        setups,
        walls,
        best,
        probes,
        all_probes,
        first: first.expect("at least one pass ran"),
        full,
        peak_rss_mb: peak_rss_mb.expect("at least one pass ran"),
    })
}

fn print_metric(name: &str, value: f64, unit: &str, base: &str) {
    println!("metric {name} = {value} {unit} [{base}]");
}

/// Runs the benchmark, printing a report whose last line is the result
/// object. Returns whether every check held.
///
/// # Errors
/// When set-up or warm-up fails, or a metric cannot be measured.
pub fn run(o: &Options, process_start: Instant) -> Result<bool, String> {
    println!(
        "perfbench: workload {} | seed {} ({}) | seconds {} | trace {} | scale {:?}",
        o.kind.name(),
        o.seed,
        o.kind.seed_note(),
        o.seconds,
        u8::from(o.trace),
        o.scale
    );
    println!("manifest: {}", Manifest::collect().to_json().render());
    println!("threads: 1 (serial Runner::with_threads(1), a fresh result cache per pass)");
    let runner = Runner::with_threads(1);

    let mut tally = Tally::default();
    let Measured {
        inputs,
        mut setups,
        mut walls,
        best,
        probes,
        mut all_probes,
        first: untraced,
        full,
        peak_rss_mb,
    } = measure(o, &runner, process_start, &mut tally)?;
    let passes = walls.len();
    let wall_s = best.seconds();
    // The host's best speed during the run, by the same statistic as
    // `wall_s`: the mean over probe slots of each slot's fastest probe.
    let probe_s = probes.mean_seconds();
    let wall_ref_s = wall_s * PROBE_REFERENCE_S / probe_s;
    // Set-up time is a median, so it is rescaled by the median probe: the
    // host's typical speed during the run.
    let setup_raw = median(&mut setups);
    let median_probe = median(&mut all_probes);
    let setup_s = setup_raw * PROBE_REFERENCE_S / median_probe;
    // The whole passes are printed beside `wall_s`, not gated.
    let fastest_wall = fastest(&walls);
    let median_wall = median(&mut walls);
    let points = inputs.points();
    let end_to_end = [
        (
            setup_s,
            format!(
                "median of {} set-ups {setup_raw:.4} s, one before each pass, the first timed \
                 from process start, x reference probe {PROBE_REFERENCE_S} s / this run's median \
                 probe {median_probe:.6} s ({} probes)",
                setups.len(),
                all_probes.len()
            ),
        ),
        (
            wall_ref_s,
            format!(
                "wall_s {wall_s:.4} s x reference probe {PROBE_REFERENCE_S} s / this run's \
                 probe {probe_s:.6} s (mean over {} probe slots of each slot's fastest)",
                probes.0.len()
            ),
        ),
        (
            peak_rss_mb,
            "VmHWM after the first set-up, full sweep (verify_exhaustive) and pass".to_string(),
        ),
    ];
    let mut metrics = Vec::new();
    for ((name, unit), (value, base)) in END_TO_END.iter().zip(end_to_end) {
        print_metric(name, value, unit, &base);
        if !o.trace {
            metrics.push((name.to_string(), value, *unit));
        }
    }
    print_metric(
        "wall_s",
        wall_s,
        "s",
        &format!(
            "sum over {} parts of each part's fastest time in {passes} passes; \
             whole passes: fastest {fastest_wall:.4} s, median {median_wall:.4} s",
            best.0.len()
        ),
    );
    print_metric(
        "scenarios_per_s",
        points as f64 / wall_s,
        "1/s",
        &format!("{points} points per pass over wall_s"),
    );

    if o.trace {
        // Each traced pass is followed by an untraced one, so that
        // `trace.overhead_frac` compares passes from the same phase of the
        // host's speed rather than from different parts of the run. The
        // traced sweep covers the whole sweep, so its untraced partner is
        // the program's own full sweep.
        let reference = full.as_ref().unwrap_or(&untraced);
        let start = Instant::now();
        let mut traced = Vec::new();
        let mut paired_walls = Vec::new();
        while traced.is_empty() || start.elapsed().as_secs_f64() < o.seconds {
            let t = traced_pass(&inputs, &runner);
            tally.add("traced pass", &t.pass);
            let clock = Instant::now();
            let mut pass = match inputs.full_sweep(&runner) {
                Some(pass) => pass,
                None => inputs.run_pass(&runner),
            };
            let paired = clock.elapsed().as_secs_f64();
            check_repeats(reference, &mut pass);
            tally.add("paired untraced pass", &pass);
            println!(
                "traced pass {}: {:.4} s, {} points, {} failed, {} cache misses, {} replayed; \
                 untraced pass after it: {paired:.4} s",
                traced.len() + 1,
                t.wall_s,
                t.pass.points,
                t.pass.failed,
                t.pass.misses,
                t.pass.replayed
            );
            traced.push(t);
            paired_walls.push(paired);
        }
        let first = &traced[0];
        let cache = (first.pass.misses, first.pass.replayed);
        if cache != (reference.misses, reference.replayed) {
            tally.failed += first.pass.points;
            println!(
                "FAILED traced pass: cache misses/replays {cache:?} differ from the untraced pass's {:?}",
                (reference.misses, reference.replayed)
            );
        }
        for f in layer_figures(&inputs, &traced, wall_s, fastest(&paired_walls)) {
            let LayerFigure {
                name,
                value,
                unit,
                base,
            } = f;
            print_metric(name, value, unit, &base);
            metrics.push((name.to_string(), value, unit));
        }
    }

    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    print_metric(
        "failed_frac",
        failed_frac,
        "ratio",
        &format!("{} failed of {} attempted", tally.failed, tally.attempted),
    );
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number: {value}"));
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    let metrics = metrics.into_iter().map(|(name, value, unit)| {
        let value = Json::obj([("value", Json::F64(value)), ("unit", Json::str(unit))]);
        (name, value)
    });
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(tally.attempted)),
        ("failed", Json::U64(tally.failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

/// Runs one pass of `kind` without pins and prints the pin lines it
/// produced: the sweep's counts, or one pin-file line per scenario.
pub fn print_pins(kind: Kind, scale: Scale) {
    let runner = Runner::with_threads(1);
    let labelled = match kind {
        Kind::VerifyExhaustive => {
            let r = vecmem_oracle::conform::sweep(&workloads::sweep_bounds(scale), &runner);
            println!(
                "enumerated {} executed {} replayed {} thm1 {} thm2 {} thm3 {} thm3_skipped {} \
                 iiia {} clean {}",
                r.enumerated,
                r.executed,
                r.replayed,
                r.thm1_checked,
                r.thm2_checked,
                r.thm3_checked,
                r.thm3_skipped,
                r.iiia_checked,
                r.clean()
            );
            return;
        }
        Kind::GatherLongPeriod => workloads::gather_batch(scale),
        Kind::PatternMix => workloads::pattern_mix(0, scale),
    };
    let scenarios: Vec<_> = labelled.iter().map(|(_, s)| s.clone()).collect();
    for ((label, _), out) in labelled.iter().zip(runner.run(&scenarios)) {
        println!("{}", workloads::golden_line(label, &out));
    }
}

//! Exact steady-state (cyclic state) effective bandwidth, in bounded
//! memory.
//!
//! Paper §III, assumption 1: "the possible memory states are finite, and
//! some cyclic state will be reached. Neglecting startup times, we compute
//! the effective bandwidth for the cyclic state." The solver realises this
//! literally: the full simulator state — remaining bank busy times, each
//! stream's reduced position, and the priority rotation — is a [`SimState`]
//! core, and as soon as a core recurs, the bandwidth over one period of the
//! cycle is exact and final.
//!
//! Recurrence is found with a multi-anchor variant of **Brent's
//! cycle-finding algorithm** over the state's incrementally maintained
//! hash:
//!
//! * the searching cursor keeps snapshots of itself at every power-of-two
//!   step count and compares each new state against *all* of them (a scan
//!   of one `u64` hash per snapshot). The first match is provably exactly
//!   one period `λ` behind the cursor: had the distance been `k·λ` with
//!   `k ≥ 2`, the same snapshot would already have matched `λ` steps
//!   earlier. This finds `λ` in `μ' + λ` steps, where `μ'` is the first
//!   power of two ≥ the transient length `μ`;
//! * every cursor carries cumulative per-port grant and conflict
//!   counters, so the difference between the cursor and the matched
//!   snapshot is one full period of window statistics — period sums are
//!   phase-independent, so no replay pass is needed;
//! * the exact transient `μ` comes from walking two cursors `λ` apart
//!   until they meet. When the match was against the start snapshot the
//!   transient is zero and this phase is skipped entirely. Otherwise let
//!   `s_k` be the matched snapshot's position and `s_{k−1}` the one
//!   before it: every earlier snapshot lies in the transient (an on-cycle
//!   one would have matched first), so `s_{k−1} < μ ≤ s_k`. The behind
//!   cursor starts at `s_{k−1}` and the ahead cursor at `s_{k−1} + λ`, so
//!   the joint walk takes `2(μ − s_{k−1}) ≤ s_k` steps — at most `μ` once
//!   `k ≥ 2`, where a walk from position 0 would take `2μ`. The ahead
//!   cursor is restored from the latest snapshot at or before `s_{k−1} +
//!   λ` and pre-advanced from there, at most `λ` steps, so the replay
//!   costs at most `λ + μ` steps in all. An on-cycle snapshot past the
//!   target, advanced to the next position congruent to it mod `λ`, is
//!   never cheaper under power-of-two snapshots (a unit test checks this
//!   exhaustively for small `μ` and `λ`).
//!
//! Equality is checked hash-first (one `u64` compare per cycle per
//! snapshot) and confirmed on the full core, so a hash collision can never
//! produce a wrong answer — only a skipped candidate. Memory use is
//! O(state · log transient): one snapshot per power of two, independent of
//! how many cycles the transient takes, where the previous detector kept a
//! hash map entry (state key + per-port grant vector) for *every*
//! simulated cycle.

use crate::config::SimConfig;
use crate::observe::NoopObserver;
use crate::request::PortOutcome;
use crate::state::SimState;
use crate::stats::ConflictCounts;
use crate::step::{step, CycleEvents};
use crate::workload::Workload;
use vecmem_analytic::Ratio;

/// Measured cyclic state of a set of infinite streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SteadyState {
    /// Exact effective bandwidth `b_eff` (grants per clock period over one
    /// period of the cyclic state).
    pub beff: Ratio,
    /// Clock periods before the cyclic state is first entered.
    pub transient: u64,
    /// Length of the cycle in clock periods.
    pub period: u64,
    /// Total grants within one period.
    pub grants_per_period: u64,
    /// Per-port exact bandwidth within the cycle.
    pub per_port: Vec<Ratio>,
    /// Conflicts per period, by kind.
    pub conflicts_per_period: ConflictCounts,
    /// `true` when the figures come from an exact recurrence of the state
    /// core (the normal case); `false` when the workload declared itself
    /// aperiodic and the figures are a windowed estimate over `period`
    /// cycles instead (see [`WINDOWED_FALLBACK_CYCLES`]).
    pub exact: bool,
}

impl SteadyState {
    /// True when no conflicts occur in the cyclic state (i.e. the streams
    /// run at full bandwidth forever once synchronised).
    #[must_use]
    pub fn conflict_free(&self) -> bool {
        self.conflicts_per_period.total() == 0
    }
}

/// Error from the steady-state measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyStateError {
    /// No cyclic state found within the cycle budget (should not happen for
    /// valid stream workloads; the state space is finite).
    NotConverged {
        /// The exhausted cycle budget (the `max_cycles` the caller allowed
        /// for the search, not counting warmup).
        cycles: u64,
    },
}

impl std::fmt::Display for SteadyStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotConverged { cycles } => {
                write!(f, "no cyclic state within {cycles} cycles")
            }
        }
    }
}

impl std::error::Error for SteadyStateError {}

/// A workload whose full dynamic state can be summarised for cyclic-state
/// detection. The signature, together with the bank residues and priority
/// rotation, must determine all future behaviour.
pub trait ObservableWorkload: Workload {
    /// Number of `u64` slots the signature occupies. Must be constant over
    /// the workload's lifetime.
    fn signature_len(&self) -> usize;

    /// Writes the current signature into `out`, which has exactly
    /// [`signature_len`](Self::signature_len) slots.
    fn write_signature(&self, out: &mut [u64]);

    /// Compact encoding of the workload state, as an owned vector.
    fn state_signature(&self) -> Vec<u64> {
        let mut out = vec![0u64; self.signature_len()];
        self.write_signature(&mut out);
        out
    }

    /// Inclusive upper bound every signature slot stays within, when the
    /// workload knows one; `None` (the default) declares the signature
    /// unbounded and disables all bound checking.
    ///
    /// # Contract
    ///
    /// * The bound is **inclusive** and applies to **every** slot the
    ///   workload writes through [`write_signature`](Self::write_signature)
    ///   — including any end-of-stream marker values (the stride streams,
    ///   for example, write the bank count `m` for a finished port, so
    ///   their bound is `m`, not `m − 1`).
    /// * It must hold for the **initial** signature as well as after every
    ///   cycle: the steady-state cursor validates the freshly constructed
    ///   state once at construction (panicking on a violation, naming the
    ///   offending slot), and the `sanitize` feature re-checks after every
    ///   cycle via [`SimState::validate`], which reports an out-of-bound
    ///   slot as the named
    ///   [`InvariantViolation::PositionOutOfRange`](crate::state::InvariantViolation::PositionOutOfRange)
    ///   instead of a generic assert.
    /// * It must be constant over the workload's lifetime (it is wired
    ///   into the state once, via [`SimState::set_slot_bound`]).
    fn signature_bound(&self) -> Option<u64> {
        None
    }

    /// Whether the workload's request sequences are (eventually) periodic
    /// in the granted-request count — the premise of cyclic-state
    /// recurrence. The default is `true`, which is correct for every
    /// finite-state workload. A workload that knows its addresses never
    /// recur (e.g. a pseudo-random gather whose signature is the raw issue
    /// count) returns `false`, and the steady-state solver answers with a
    /// budgeted windowed estimate instead of spinning the full cycle
    /// budget into [`SteadyStateError::NotConverged`].
    fn periodic(&self) -> bool {
        true
    }
}

impl<W: ObservableWorkload + ?Sized> ObservableWorkload for &mut W {
    fn signature_len(&self) -> usize {
        (**self).signature_len()
    }
    fn write_signature(&self, out: &mut [u64]) {
        (**self).write_signature(out);
    }
    fn signature_bound(&self) -> Option<u64> {
        (**self).signature_bound()
    }
    fn periodic(&self) -> bool {
        (**self).periodic()
    }
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn pending(&self, port: crate::request::PortId, now: u64) -> Option<crate::request::Request> {
        (**self).pending(port, now)
    }
    fn granted(&mut self, port: crate::request::PortId, now: u64) {
        (**self).granted(port, now);
    }
    fn tick(&mut self, now: u64) {
        (**self).tick(now);
    }
    fn is_finished(&self) -> bool {
        (**self).is_finished()
    }
}

/// One deterministic replayable trajectory: a state plus the workload
/// driving it, with the workload's signature mirrored into the state's
/// position slots after every step so the state core alone decides
/// recurrence. The cursor also carries cumulative per-port grant and
/// conflict counters so any two points on the same trajectory define a
/// window of statistics by subtraction.
struct Cursor<'c, W> {
    config: &'c SimConfig,
    state: SimState,
    workload: W,
    sig_buf: Vec<u64>,
    per_port: Vec<u64>,
    conflicts: ConflictCounts,
}

/// A saved cursor position: the trajectory step count (post-warmup), the
/// state, the workload, and the cumulative counters at that point.
struct Snapshot<W> {
    pos: u64,
    state: SimState,
    workload: W,
    per_port: Vec<u64>,
    conflicts: ConflictCounts,
}

impl<'c, W: ObservableWorkload + Clone> Cursor<'c, W> {
    fn new(config: &'c SimConfig, workload: W) -> Self {
        let sig_len = workload.signature_len();
        let mut cursor = Self {
            config,
            state: SimState::with_signature_slots(config, sig_len),
            workload,
            sig_buf: vec![0u64; sig_len],
            per_port: vec![0u64; config.num_ports()],
            conflicts: ConflictCounts::default(),
        };
        let bound = cursor.workload.signature_bound();
        cursor.state.set_slot_bound(bound);
        cursor.sync();
        // Construction-time contract check: the initial signature must
        // already satisfy the declared bound (see
        // `ObservableWorkload::signature_bound`).
        if let Err(violation) = cursor.state.validate() {
            // vecmem-lint: allow(L3) -- contract violation at construction must abort loudly
            panic!("workload signature invalid at construction: {violation}");
        }
        cursor
    }

    fn sync(&mut self) {
        self.workload.write_signature(&mut self.sig_buf);
        self.state.sync_signature(&self.sig_buf);
    }

    /// One kernel step. The state's position slots stay stale until the
    /// next [`sync`](Self::sync): the kernel never reads them, only the
    /// recurrence comparisons do.
    fn kernel_step(&mut self) -> CycleEvents {
        step(
            self.config,
            &mut self.state,
            &mut self.workload,
            &mut NoopObserver,
        )
    }

    /// Adds one step's work to the running counters: conflicts from the
    /// kernel's aggregate, grants from the per-port outcomes, which are
    /// walked only on cycles with grants.
    fn count(&mut self, events: CycleEvents) {
        self.conflicts += events.conflicts;
        if events.grants > 0 {
            for ev in &self.state.outcomes {
                if ev.outcome == PortOutcome::Granted {
                    // vecmem-lint: allow(L7) -- port ids come from the kernel's own config, always < ports
                    self.per_port[ev.port.0] += 1;
                }
            }
        }
    }

    /// One counted step, synced for comparison: the searching cursor's
    /// move.
    fn advance(&mut self) {
        let events = self.kernel_step();
        self.sync();
        self.count(events);
    }

    /// `cycles` counted steps, synced once at the end.
    fn advance_by(&mut self, cycles: u64) {
        for _ in 0..cycles {
            let events = self.kernel_step();
            self.count(events);
        }
        self.sync();
    }

    /// `cycles` uncounted steps (warmup, the μ replay, which compares
    /// states only), synced once at the end.
    fn walk_by(&mut self, cycles: u64) {
        for _ in 0..cycles {
            self.kernel_step();
        }
        self.sync();
    }

    fn snapshot(&self, pos: u64) -> Snapshot<W> {
        Snapshot {
            pos,
            state: self.state.clone(),
            workload: self.workload.clone(),
            per_port: self.per_port.clone(),
            conflicts: self.conflicts,
        }
    }

    fn restore(config: &'c SimConfig, snap: &Snapshot<W>) -> Self {
        let sig_len = snap.workload.signature_len();
        Self {
            config,
            state: snap.state.clone(),
            workload: snap.workload.clone(),
            sig_buf: vec![0u64; sig_len],
            per_port: snap.per_port.clone(),
            conflicts: snap.conflicts,
        }
    }
}

/// Deterministic work done by one steady-state search, in kernel steps
/// (warmup not included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StepTally {
    /// Steps of the searching cursor until its state matched a snapshot.
    pub search: u64,
    /// Steps of the μ replay: the ahead cursor's pre-advance plus both
    /// cursors' joint walk.
    pub replay: u64,
    /// Snapshots taken, the start snapshot included.
    pub snapshots: u64,
}

/// Runs any observable workload until the simulator state recurs and
/// returns the exact cyclic-state bandwidth. `warmup` cycles are simulated
/// first (use this to get past start-time offsets that are not part of the
/// state signature); `max_cycles` bounds the post-warmup search.
///
/// The caller's workload is read (and cloned) but left untouched; the
/// search replays pristine clones internally.
///
/// # Errors
/// Returns [`SteadyStateError::NotConverged`] when the simulator state does
/// not recur within `max_cycles` after warmup.
pub fn measure_steady_state_workload<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    // Aperiodic workloads (per their own declaration) can never recur:
    // answer with a budgeted windowed estimate instead of burning the full
    // cycle budget on a search that must fail.
    if !workload.periodic() {
        return measure_windowed(config, workload, warmup, max_cycles);
    }
    measure_tallied(
        config,
        workload,
        warmup,
        max_cycles,
        &mut StepTally::default(),
    )
}

/// The exact search of [`measure_steady_state_workload`] for a periodic
/// workload, recording its work in `tally`.
pub(crate) fn measure_tallied<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &W,
    warmup: u64,
    max_cycles: u64,
    tally: &mut StepTally,
) -> Result<SteadyState, SteadyStateError> {
    let not_converged = SteadyStateError::NotConverged { cycles: max_cycles };

    // Search cursor: pristine workload advanced through warmup, then
    // stepped while racing against snapshots of its own past taken at
    // every power-of-two step count. The first recurrence is provably
    // exactly one period behind the cursor (a distance of k·λ with k ≥ 2
    // would have matched the same snapshot λ steps sooner).
    let mut hare = Cursor::new(config, workload.clone());
    hare.walk_by(warmup);
    let mut snaps: Vec<Snapshot<W>> = vec![hare.snapshot(0)];
    let mut snap_hashes: Vec<u64> = vec![hare.state.hash()];
    let mut pos: u64 = 0;
    let mut next_snap: u64 = 1;
    let found = loop {
        if pos >= max_cycles {
            break None;
        }
        hare.advance();
        pos += 1;
        let h = hare.state.hash();
        let mut found = None;
        for (i, &sh) in snap_hashes.iter().enumerate() {
            if sh == h && snaps[i].state == hare.state {
                found = Some(i);
                break;
            }
        }
        if let Some(i) = found {
            break Some((pos - snaps[i].pos, i));
        }
        if pos == next_snap {
            snaps.push(hare.snapshot(pos));
            snap_hashes.push(h);
            next_snap *= 2;
        }
    };
    tally.search = pos;
    tally.snapshots = snaps.len() as u64;
    let (lambda, matched) = found.ok_or(not_converged)?;

    // One full period of window statistics, by subtraction: period sums
    // are phase-independent, so the window [matched.pos, pos) is as good
    // as [μ, μ+λ).
    let anchor = &snaps[matched];
    let per_port_grants: Vec<u64> = hare
        .per_port
        .iter()
        .zip(&anchor.per_port)
        .map(|(&a, &b)| a - b)
        .collect();
    let conflicts = hare.conflicts - anchor.conflicts;

    // Transient μ: the first post-warmup cycle whose state lies on the
    // cycle. A match against the start snapshot means the trajectory was
    // cyclic from the start. Otherwise every snapshot before the matched
    // one lies in the transient (an on-cycle one would have matched
    // first), so μ ∈ (from, anchor] with `from` the snapshot just before
    // the matched one, and two cursors λ apart, started at `from` and
    // `from + λ`, meet exactly at μ.
    let mu = if matched == 0 {
        0
    } else {
        let from = &snaps[matched - 1];
        let target = from.pos + lambda;
        let near = snaps
            .iter()
            .rev()
            .find(|s| s.pos <= target)
            .expect("start snapshot is at pos 0");
        let lead = target - near.pos;
        let mut ahead = Cursor::restore(config, near);
        ahead.walk_by(lead);
        let mut behind = Cursor::restore(config, from);
        let mut mu = from.pos;
        while !(ahead.state.hash() == behind.state.hash() && ahead.state == behind.state) {
            ahead.walk_by(1);
            behind.walk_by(1);
            mu += 1;
        }
        tally.replay = lead + 2 * (mu - from.pos);
        mu
    };

    let grants_per_period: u64 = per_port_grants.iter().sum();
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, lambda),
        transient: warmup + mu,
        period: lambda,
        grants_per_period,
        per_port: per_port_grants
            .iter()
            .map(|&g| Ratio::new(g, lambda))
            .collect(),
        conflicts_per_period: conflicts,
        exact: true,
    })
}

/// Cycle budget of the windowed estimate used for self-declared aperiodic
/// workloads: the measurement window is `min(max_cycles, this)` cycles
/// after warmup.
pub const WINDOWED_FALLBACK_CYCLES: u64 = 1 << 16;

/// Budgeted windowed estimate for workloads that declare themselves
/// aperiodic ([`ObservableWorkload::periodic`] = `false`): simulate
/// `warmup` cycles, then a window of `min(max_cycles,`
/// [`WINDOWED_FALLBACK_CYCLES`]`)` cycles, and report the window averages
/// with [`SteadyState::exact`] = `false`. No snapshots are kept — there is
/// nothing to recur against.
fn measure_windowed<W: ObservableWorkload + Clone>(
    config: &SimConfig,
    workload: &mut W,
    warmup: u64,
    max_cycles: u64,
) -> Result<SteadyState, SteadyStateError> {
    let window = max_cycles.min(WINDOWED_FALLBACK_CYCLES);
    if window == 0 {
        return Err(SteadyStateError::NotConverged { cycles: max_cycles });
    }
    let mut cursor = Cursor::new(config, workload.clone());
    cursor.walk_by(warmup);
    let base_per_port = cursor.per_port.clone();
    let base_conflicts = cursor.conflicts;
    cursor.advance_by(window);
    let per_port_grants: Vec<u64> = cursor
        .per_port
        .iter()
        .zip(&base_per_port)
        .map(|(&a, &b)| a - b)
        .collect();
    let grants_per_period: u64 = per_port_grants.iter().sum();
    Ok(SteadyState {
        beff: Ratio::new(grants_per_period, window),
        transient: warmup,
        period: window,
        grants_per_period,
        per_port: per_port_grants
            .iter()
            .map(|&g| Ratio::new(g, window))
            .collect(),
        conflicts_per_period: cursor.conflicts - base_conflicts,
        exact: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PortId, Request};
    use vecmem_analytic::Geometry;

    /// Port p cycles through banks `p, p + d, p + 2d, …` (mod m).
    #[derive(Clone)]
    struct Strides {
        m: u64,
        d: Vec<u64>,
        pos: Vec<u64>,
    }

    impl Strides {
        fn new(m: u64, d: &[u64]) -> Self {
            Self {
                m,
                d: d.to_vec(),
                pos: (0..d.len() as u64).collect(),
            }
        }
    }

    impl Workload for Strides {
        fn pending(&self, port: PortId, _now: u64) -> Option<Request> {
            self.pos.get(port.0).map(|&bank| Request::to_bank(bank))
        }
        fn granted(&mut self, port: PortId, _now: u64) {
            self.pos[port.0] = (self.pos[port.0] + self.d[port.0]) % self.m;
        }
        fn is_finished(&self) -> bool {
            false
        }
    }

    impl ObservableWorkload for Strides {
        fn signature_len(&self) -> usize {
            self.pos.len()
        }
        fn write_signature(&self, out: &mut [u64]) {
            out.copy_from_slice(&self.pos);
        }
    }

    #[test]
    fn unit_stride_single_stream_full_bandwidth() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::integer(1));
        assert!(ss.conflict_free());
        assert_eq!(ss.grants_per_period, ss.period);
    }

    #[test]
    fn self_conflicting_stream_quarter_bandwidth() {
        // d = 0: one bank hammered forever, b_eff = 1 / n_c.
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 4).unwrap(), 1);
        let mut w = Strides::new(8, &[0]);
        let ss = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(ss.beff, Ratio::new(1, 4));
        assert_eq!(ss.period, 4);
        assert_eq!(ss.conflicts_per_period.bank, 3);
    }

    #[test]
    fn budget_exhaustion_reports_the_budget() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(16, 4).unwrap(), 1);
        let mut w = Strides::new(16, &[1]);
        // The 16-bank unit stride needs more than 3 search cycles.
        let err = measure_steady_state_workload(&cfg, &mut w, 0, 3).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
        assert_eq!(err.to_string(), "no cyclic state within 3 cycles");
        // Warmup does not inflate the reported budget.
        let err = measure_steady_state_workload(&cfg, &mut w, 100, 3).unwrap_err();
        assert_eq!(err, SteadyStateError::NotConverged { cycles: 3 });
    }

    fn tallied<W: ObservableWorkload + Clone>(
        cfg: &SimConfig,
        w: &W,
        warmup: u64,
    ) -> (SteadyState, StepTally) {
        let mut tally = StepTally::default();
        let ss = measure_tallied(cfg, w, warmup, 1_000_000, &mut tally).unwrap();
        (ss, tally)
    }

    #[test]
    fn step_tallies_are_pinned() {
        // Snapshots sit at 0, 1, 2, 4, 8, …; the search stops one period
        // after the matched snapshot s_k, and the replay walks both
        // cursors from s_{k−1} to μ after pre-advancing the ahead cursor
        // from the latest snapshot at or before s_{k−1} + λ.
        let unsectioned = |m, nc| Geometry::unsectioned(m, nc).unwrap();
        let tally = |search, replay, snapshots| StepTally {
            search,
            replay,
            snapshots,
        };

        // d = 0: cyclic from the start (λ = n_c), so no replay at all.
        let cfg = SimConfig::single_cpu(unsectioned(8, 4), 1);
        let (ss, t) = tallied(&cfg, &Strides::new(8, &[0]), 0);
        assert_eq!((ss.transient, ss.period), (0, 4));
        assert_eq!(t, tally(4, 0, 3));

        // Unit stride on 16 banks: μ = 3 ∈ (2, 4], λ = 16. Search 4 + 16;
        // replay (2 + 16 − 16) + 2·(3 − 2).
        let cfg = SimConfig::single_cpu(unsectioned(16, 4), 1);
        let (ss, t) = tallied(&cfg, &Strides::new(16, &[1]), 0);
        assert_eq!((ss.transient, ss.period), (3, 16));
        assert_eq!(t, tally(20, 2 + 2, 6));

        // Fig. 3's streams from banks 0 and 1: μ = 5 ∈ (4, 8], λ = 117.
        // Search 8 + 117; replay (4 + 117 − 64) + 2·(5 − 4), where the
        // replay from position 0 took (117 − 64) + 2·5.
        let cfg = SimConfig::one_port_per_cpu(unsectioned(13, 6), 2);
        let (ss, t) = tallied(&cfg, &Strides::new(13, &[1, 6]), 0);
        assert_eq!((ss.transient, ss.period), (5, 117));
        assert_eq!(t, tally(125, 57 + 2, 8));

        // Warmup steps are not search work: three cycles of warmup leave
        // μ = 2 ∈ (1, 2], so the search stops at 2 + 117 and the replay
        // pre-advances from 64 to 1 + 117, then walks 2·(2 − 1).
        let (ss, t) = tallied(&cfg, &Strides::new(13, &[1, 6]), 3);
        assert_eq!((ss.transient, ss.period), (5, 117));
        assert_eq!(t, tally(119, 54 + 2, 8));
    }

    #[test]
    fn long_period_gather_tallies_are_pinned() {
        // The longest affine gather pair on m = 13 (span 1024, a = 1 and
        // 11, cross-CPU): μ = 2,867 lies between the snapshots at 2,048
        // and 4,096, λ = 454,841. The replay pre-advances the ahead cursor
        // from the snapshot at 2^18 to 2,048 + λ, then walks both cursors
        // 2·(2,867 − 2,048) steps.
        use crate::pattern::{GatherPattern, IndexPattern, PatternPort, PatternWorkload};
        let g = Geometry::unsectioned(13, 4).unwrap();
        let cfg = SimConfig::one_port_per_cpu(g, 2);
        let port = |a, c| {
            PatternPort::new(GatherPattern::new(
                &g,
                0,
                1024,
                IndexPattern::Affine { a, c },
            ))
        };
        let w = PatternWorkload::new(vec![port(1, 0), port(11, 1)]);
        let (ss, tally) = tallied(&cfg, &w, 0);
        assert_eq!((ss.transient, ss.period), (2_867, 454_841));
        assert_eq!(ss.beff, Ratio::new(586_752, 454_841));
        assert_eq!(
            tally,
            StepTally {
                search: 4_096 + 454_841,
                replay: (2_048 + 454_841 - (1 << 18)) + 2 * (2_867 - 2_048),
                snapshots: 20,
            }
        );
        assert_eq!((tally.search, tally.replay), (458_937, 196_383));
    }

    #[test]
    fn congruent_anchor_never_beats_the_latest_snapshot() {
        // The replay's ahead cursor needs the state at s_{k−1} + λ. Besides
        // the latest snapshot at or before it, any on-cycle position past
        // it (a later snapshot, or the searching cursor itself at s_k + λ)
        // reaches that state at the next congruent position mod λ. Over
        // the power-of-two schedule that is never cheaper, so the solver
        // only looks backwards.
        for mu in 1..=300u64 {
            for lambda in 1..=300u64 {
                let s_k = mu.next_power_of_two();
                let s_prev = if s_k > 1 { s_k / 2 } else { 0 };
                let stop = s_k + lambda;
                let snaps: Vec<u64> = std::iter::once(0)
                    .chain((0..64).map(|j| 1u64 << j).take_while(|&p| p < stop))
                    .collect();
                let target = s_prev + lambda;
                let near = snaps.iter().rev().find(|&&p| p <= target).unwrap();
                let lead = target - near;
                assert!(lead + 2 * (mu - s_prev) <= lambda + mu, "μ={mu} λ={lambda}");
                if target < s_k {
                    continue;
                }
                for p in snaps.iter().copied().chain([stop]) {
                    if p > target && p >= s_k {
                        assert!(target + lambda - p >= lead, "μ={mu} λ={lambda} p={p}");
                    }
                }
            }
        }
    }

    #[test]
    fn caller_workload_left_untouched() {
        let cfg = SimConfig::single_cpu(Geometry::unsectioned(8, 2).unwrap(), 1);
        let mut w = Strides::new(8, &[3]);
        let before = w.state_signature();
        let _ = measure_steady_state_workload(&cfg, &mut w, 0, 10_000).unwrap();
        assert_eq!(w.state_signature(), before);
    }
}

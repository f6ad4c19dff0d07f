//! The packed simulator state: one contiguous buffer holding everything
//! that evolves from clock period to clock period.
//!
//! vecmem-lint: alloc-free
//!
//! Paper §III, assumption 1, rests on the memory state being *finite*; this
//! module makes that state an explicit, compact value instead of a bundle
//! of per-subsystem fields. A [`SimState`] packs, in a single `u64` buffer:
//!
//! * the priority **rotation** (word 0);
//! * per-bank busy **residues** — remaining busy clock periods, stored as
//!   one byte per bank (they are bounded by `n_c`, which must fit in a
//!   `u8`), eight banks per word;
//! * per-bank **open rows** — under the DRAM bank model
//!   ([`BankModel::Dram`](crate::config::BankModel::Dram)) only, one word
//!   per bank holding `row + 1` (`0` = closed). The uniform model packs
//!   zero open-row words, keeping its layout and hashes byte-identical to
//!   the pre-DRAM encoding;
//! * per-port workload **position slots** — the reduced stream positions a
//!   workload reports through
//!   [`ObservableWorkload`](crate::steady::ObservableWorkload);
//! * per-port **wait counters** — clock periods the head request has been
//!   delayed. Waits are accounting state: they never influence arbitration
//!   and can grow without bound under starvation, so they are excluded from
//!   both the hash and [`PartialEq`].
//!
//! The prefix up to the wait counters (rotation + residues + open rows +
//! positions) is the *core*: the part that determines all future behaviour. Equality of
//! cores is cyclic-state recurrence, and the detector in
//! [`crate::steady`] tracks it through an **incrementally maintained
//! 64-bit hash**: every mutation XORs out the old component and XORs in
//! the new one, so the hash after any number of steps equals the hash of a
//! freshly packed copy of the same state (see
//! [`SimState::recompute_hash`]) without ever re-hashing the whole buffer.
//! Each core word's component is `mix64(key ^ value)`, where the word's
//! key `mix64(seed ^ index)` is computed once at construction and stored
//! behind the wait counters, so an update costs two `mix64` calls (old
//! value out, new value in).

use crate::config::{check_bank_cycle, SimConfig};
use crate::request::{PortId, PortOutcome, Request};
use crate::rng::mix64;
use std::fmt::Write as _;

/// One port's view of one simulated clock period, in arbitration (input)
/// order. Produced by the [`step`](crate::step::step) kernel into
/// [`SimState::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortEvent {
    /// The port that had a pending request this cycle.
    pub port: PortId,
    /// The request it presented.
    pub request: Request,
    /// Grant or delay (with the conflict kind).
    pub outcome: PortOutcome,
    /// Clock periods the port's head request has waited: for a granted
    /// port the completed wait (what the histogram records), for a delayed
    /// port the running count including this cycle.
    pub wait: u64,
}

/// Hash key of one core word: `seed` names the component family, `idx`
/// the slot within it. The word's hash contribution is `mix64(key ^
/// value)`; XOR-ing contributions makes every update O(1): flip the old
/// one out, the new one in.
fn slot_key(seed: u64, idx: u64) -> u64 {
    mix64(seed ^ idx)
}

const RES_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const POS_SEED: u64 = 0xc2b2_ae3d_27d4_eb4f;
const ROT_SEED: u64 = 0x1656_67b1_9e37_79f9;
const ROW_SEED: u64 = 0x2545_f491_4f6c_dd1d;

/// A violated [`SimState`] structural invariant, as found by
/// [`SimState::validate`].
///
/// These are the properties every reachable state satisfies by
/// construction; a violation means a kernel bug, a corrupted external
/// state lifted in through [`SimState::pack`], or (in the oracle's
/// seeded-fault tests) an injected bug doing its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantViolation {
    /// A bank residue exceeds the bank cycle time `n_c`: no grant can make
    /// a bank busy for longer than one memory cycle.
    ResidueOverflow {
        /// The offending bank.
        bank: u64,
        /// Its stored residue.
        residue: u8,
        /// The maximum any reachable state can hold (`n_c`).
        max: u8,
    },
    /// The priority rotation is not a valid port index.
    RotationOutOfRange {
        /// The stored rotation.
        rotation: usize,
        /// Number of ports it must stay below.
        ports: u32,
    },
    /// A DRAM open-row word exceeds the bank model's row count: rows are
    /// reduced modulo `rows` before they are opened, so no reachable state
    /// can hold a larger one.
    OpenRowOutOfRange {
        /// The offending bank.
        bank: u64,
        /// Its stored open row.
        row: u64,
        /// The bank model's exclusive row bound.
        rows: u64,
    },
    /// A workload position slot exceeds the workload's declared bound.
    PositionOutOfRange {
        /// The offending slot.
        slot: usize,
        /// Its stored value.
        position: u64,
        /// The workload's inclusive bound.
        bound: u64,
    },
    /// The incrementally maintained hash diverged from a from-scratch
    /// recompute: some mutation bypassed the hashed accessors.
    HashMismatch {
        /// The incremental value ([`SimState::hash`]).
        incremental: u64,
        /// The from-scratch value ([`SimState::recompute_hash`]).
        recomputed: u64,
    },
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::ResidueOverflow { bank, residue, max } => write!(
                f,
                "bank {bank} residue {residue} exceeds the bank cycle time {max}"
            ),
            Self::RotationOutOfRange { rotation, ports } => {
                write!(
                    f,
                    "rotation {rotation} is not a port index (ports = {ports})"
                )
            }
            Self::OpenRowOutOfRange { bank, row, rows } => write!(
                f,
                "bank {bank} open row {row} outside the bank model's 0..{rows}"
            ),
            Self::PositionOutOfRange {
                slot,
                position,
                bound,
            } => write!(
                f,
                "position slot {slot} holds {position}, above the workload bound {bound}"
            ),
            Self::HashMismatch {
                incremental,
                recomputed,
            } => write!(
                f,
                "incremental hash {incremental:#018x} != recomputed {recomputed:#018x}"
            ),
        }
    }
}

/// The packed dynamic state of one simulated memory system.
///
/// Construction fixes the dimensions (banks, ports, signature slots); all
/// per-cycle mutation goes through the [`step`](crate::step::step) kernel
/// and the position-sync methods. `PartialEq` compares the *core* only
/// (rotation, residues, positions) — wait counters and per-cycle scratch
/// are excluded, so two states compare equal exactly when their futures
/// coincide.
#[derive(Debug, Clone)]
pub struct SimState {
    /// Layout: `[rotation | residue words | open-row words | position
    /// slots | waits | keys]`. The open-row region exists only under the
    /// DRAM bank model (one word per bank, `row + 1` with `0` = closed);
    /// under the uniform model it is zero words wide, so the layout — and
    /// every hash — is byte-identical to the pre-DRAM encoding. The trailing
    /// `keys` region holds one precomputed hash key per core word (see
    /// [`slot_key`]); it never changes after construction.
    buf: Box<[u64]>,
    banks: u32,
    ports: u32,
    sig_len: u32,
    /// Number of `u64` words holding the packed residues.
    res_words: u32,
    /// Number of `u64` words holding per-bank open rows: `banks` under the
    /// DRAM bank model, `0` under the uniform model.
    row_words: u32,
    /// Exclusive bound on open-row values (the DRAM model's `rows`; `0`
    /// under the uniform model, where no open-row words exist).
    max_rows: u64,
    /// Largest residue any reachable state can hold: the geometry's bank
    /// cycle time `n_c`.
    max_residue: u8,
    /// Inclusive bound on workload position slots, when the workload
    /// declared one (see
    /// [`ObservableWorkload::signature_bound`](crate::steady::ObservableWorkload::signature_bound)).
    slot_bound: Option<u64>,
    /// Word offsets of the position slots, the wait counters (= the core
    /// length) and the hash keys, fixed at construction.
    pos_base: usize,
    wait_base: usize,
    key_base: usize,
    now: u64,
    /// The incrementally maintained core hash.
    hash: u64,
    /// Per-port events of the last simulated cycle, in arbitration order.
    pub(crate) outcomes: Vec<PortEvent>,
    /// Scratch: pending requests collected at the start of a cycle.
    pub(crate) pending: Vec<(PortId, Request)>,
    /// Scratch: per-request outcomes parallel to `pending`.
    pub(crate) kinds: Vec<PortOutcome>,
    /// Banks whose busy interval expired at the end of the last cycle;
    /// their `busy = false` transition is reported at the start of the
    /// next one (matching the observer contract's timing).
    pub(crate) just_freed: Vec<u64>,
}

impl SimState {
    /// Fresh all-zero state with no workload signature slots (the engine
    /// wrapper's configuration: residues, rotation and waits only).
    #[must_use]
    pub fn new(config: &SimConfig) -> Self {
        Self::with_signature_slots(config, 0)
    }

    /// Fresh all-zero state with room for `sig_len` workload position
    /// slots in the hashed core.
    ///
    /// # Panics
    /// If the geometry's bank cycle time exceeds
    /// [`MAX_BANK_CYCLE`](crate::config::MAX_BANK_CYCLE), the limit of the
    /// `u8` residue encoding (callers taking `n_c` from users check it
    /// first with [`check_bank_cycle`]).
    #[must_use]
    pub fn with_signature_slots(config: &SimConfig, sig_len: usize) -> Self {
        if let Err(e) = check_bank_cycle(config.geometry.bank_cycle()) {
            // vecmem-lint: allow(L3) -- documented constructor precondition; user-facing callers validate first
            panic!("{e}");
        }
        let banks = config.geometry.banks() as u32;
        let ports = config.num_ports() as u32;
        let res_words = banks.div_ceil(8);
        let (row_words, max_rows) = match config.bank_model {
            crate::config::BankModel::Uniform => (0, 0),
            crate::config::BankModel::Dram { rows, .. } => (banks, rows),
        };
        let pos_base = 1 + res_words as usize + row_words as usize;
        let core = pos_base + sig_len;
        let key_base = core + ports as usize;
        let mut state = Self {
            // vecmem-lint: allow(L2) -- one-time construction; the step kernel never re-allocates
            buf: vec![0u64; key_base + core].into_boxed_slice(),
            banks,
            ports,
            sig_len: sig_len as u32,
            res_words,
            row_words,
            max_rows,
            max_residue: config.geometry.bank_cycle() as u8,
            slot_bound: None,
            pos_base,
            wait_base: core,
            key_base,
            now: 0,
            hash: 0,
            outcomes: Vec::with_capacity(ports as usize), // vecmem-lint: allow(L2) -- one-time construction
            pending: Vec::with_capacity(ports as usize), // vecmem-lint: allow(L2) -- one-time construction
            kinds: Vec::with_capacity(ports as usize), // vecmem-lint: allow(L2) -- one-time construction
            just_freed: Vec::with_capacity(ports as usize), // vecmem-lint: allow(L2) -- one-time construction
        };
        let keys = std::iter::once(slot_key(ROT_SEED, 0))
            .chain((0..u64::from(res_words)).map(|w| slot_key(RES_SEED, w)))
            .chain((0..u64::from(row_words)).map(|b| slot_key(ROW_SEED, b)))
            .chain((0..sig_len as u64).map(|s| slot_key(POS_SEED, s)));
        for (slot, key) in state.buf[key_base..].iter_mut().zip(keys) {
            *slot = key;
        }
        state.hash = state.recompute_hash();
        state
    }

    /// Packs an externally held state (used by the differential oracle to
    /// lift the reference engine's state into the canonical form, so both
    /// sides of a divergence dump share one format and the sanitizer one
    /// validator).
    ///
    /// # Panics
    /// If `residues` does not have one entry per bank.
    #[must_use]
    pub fn pack(config: &SimConfig, residues: &[u8], positions: &[u64], rotation: usize) -> Self {
        let mut state = Self::with_signature_slots(config, positions.len());
        assert_eq!(residues.len(), state.banks as usize, "one residue per bank");
        for (bank, &r) in residues.iter().enumerate() {
            state.set_residue(bank as u64, r);
        }
        for (slot, &p) in positions.iter().enumerate() {
            state.set_position(slot, p);
        }
        state.set_rotation(rotation);
        state
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> u32 {
        self.banks
    }

    /// Number of ports.
    #[must_use]
    pub fn ports(&self) -> u32 {
        self.ports
    }

    /// Number of workload position slots in the core.
    #[must_use]
    pub fn signature_slots(&self) -> usize {
        self.sig_len as usize
    }

    /// Clock periods simulated so far. Absolute time is not part of the
    /// core: a cyclic state recurs at different `now` values.
    #[must_use]
    pub fn now(&self) -> u64 {
        self.now
    }

    pub(crate) fn advance_now(&mut self) {
        self.now += 1;
    }

    /// Current cyclic-priority rotation offset.
    #[must_use]
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn rotation(&self) -> usize {
        self.buf[0] as usize
    }

    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub(crate) fn set_rotation(&mut self, rotation: usize) {
        self.set_word(0, rotation as u64);
    }

    /// Stores `new` into core word `i`, maintaining the incremental hash.
    #[inline]
    // vecmem-lint: allow-fn(L7) -- every caller passes a core word index, and the key region mirrors the core
    fn set_word(&mut self, i: usize, new: u64) {
        let old = self.buf[i];
        if old != new {
            self.flip(i, old, new);
        }
    }

    /// Hash update of core word `i` changing from `old` to `new` (which the
    /// caller has checked differ), then the store.
    #[inline]
    // vecmem-lint: allow-fn(L7) -- every caller passes a core word index, and the key region mirrors the core
    fn flip(&mut self, i: usize, old: u64, new: u64) {
        let key = self.buf[self.key_base + i];
        self.hash ^= mix64(key ^ old) ^ mix64(key ^ new);
        self.buf[i] = new;
    }

    // vecmem-lint: overflow-policy
    #[inline]
    fn res_word_index(bank: u64) -> (usize, u32) {
        // vecmem-lint: allow(L9) -- bank < banks <= 2^32 (validated geometry); word index and byte shift cannot overflow
        ((bank / 8) as usize + 1, (bank % 8) as u32 * 8)
    }

    /// Remaining busy clock periods of `bank` at the current clock period.
    #[must_use]
    #[inline]
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn residue(&self, bank: u64) -> u8 {
        let (w, shift) = Self::res_word_index(bank);
        (self.buf[w] >> shift) as u8
    }

    /// Sets the residue of `bank`, maintaining the incremental hash.
    // vecmem-lint: overflow-policy
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    #[inline]
    pub(crate) fn set_residue(&mut self, bank: u64, value: u8) {
        let (w, shift) = Self::res_word_index(bank);
        let old = self.buf[w];
        // vecmem-lint: allow(L9) -- shift = (bank % 8) * 8 < 64 by res_word_index construction
        let new = (old & !(0xFFu64 << shift)) | (u64::from(value) << shift);
        self.set_word(w, new);
    }

    /// All residues as one byte per bank (the legacy signature format).
    #[must_use]
    pub fn residues_vec(&self) -> Vec<u8> {
        (0..u64::from(self.banks))
            .map(|b| self.residue(b))
            .collect() // vecmem-lint: allow(L2) -- legacy signature/diagnostic path, not called by step()
    }

    /// End-of-cycle aging: every nonzero residue decreases by one. Banks
    /// whose residue reaches zero are queued in `just_freed` so the next
    /// cycle can report their busy→free transition. Touches (and re-mixes)
    /// only words that actually change.
    // vecmem-lint: overflow-policy
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub(crate) fn decrement_residues(&mut self) {
        self.just_freed.clear();
        // SWAR: per byte, bit 7 of `nonzero` is set iff the byte is > 0.
        // `(b & 0x7F) + 0x7F` sets bit 7 iff the low seven bits are nonzero
        // (the carry stays inside the byte); OR-ing the original catches
        // 0x80 itself.
        const LO7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
        const HI: u64 = 0x8080_8080_8080_8080;
        // vecmem-lint: allow-fn(L9) -- SWAR carries stay inside their byte (LO7 masks bit 7 off first) and w/byte index arithmetic is bounded by res_words * 8 = banks
        for w in 0..self.res_words as usize {
            let old = self.buf[w + 1];
            if old == 0 {
                continue;
            }
            let nonzero = (old | ((old & LO7) + LO7)) & HI;
            let new = old - (nonzero >> 7);
            let still = (new | ((new & LO7) + LO7)) & HI;
            let mut freed = nonzero & !still;
            while freed != 0 {
                let byte = freed.trailing_zeros() / 8;
                self.just_freed.push(w as u64 * 8 + u64::from(byte));
                freed &= freed - 1;
            }
            // A nonzero word always has a byte to age, so `new != old`.
            self.flip(w + 1, old, new);
        }
    }

    /// Number of banks busy at the current clock period.
    #[must_use]
    pub fn busy_banks(&self) -> u32 {
        (0..u64::from(self.banks))
            .filter(|&b| self.residue(b) > 0)
            .count() as u32
    }

    #[inline]
    fn row_base(&self) -> usize {
        1 + self.res_words as usize
    }

    /// The row currently open in `bank`'s row buffer, or `None` when the
    /// bank is cold (or the uniform model is active, which tracks no rows).
    #[must_use]
    #[inline]
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn open_row(&self, bank: u64) -> Option<u64> {
        if self.row_words == 0 {
            return None;
        }
        let word = self.buf[self.row_base() + bank as usize];
        (word != 0).then(|| word - 1)
    }

    /// Opens `row` in `bank`'s row buffer, maintaining the incremental
    /// hash. Only meaningful under the DRAM bank model.
    // vecmem-lint: overflow-policy
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    #[inline]
    pub(crate) fn set_open_row(&mut self, bank: u64, row: u64) {
        debug_assert!(self.row_words > 0, "uniform model has no open rows");
        // vecmem-lint: allow(L9) -- row_base + bank is bounded by the buffer length (validated geometry)
        let i = self.row_base() + bank as usize;
        // Packs `row + 1` so that 0 means "closed". A row of u64::MAX
        // would wrap to "closed"; rows come from Request::row, bounded by
        // the pattern's row count, which the config validates.
        self.set_word(i, row.wrapping_add(1));
    }

    /// Copies an externally held open-row vector (`None` = closed) into
    /// the open-row words — the DRAM analogue of [`Self::pack`], used by
    /// the differential oracle to lift the reference engine's row state.
    ///
    /// # Panics
    /// If `open` does not have one entry per bank, or the state was built
    /// for the uniform model (which has no open-row words).
    pub fn sync_open_rows(&mut self, open: &[Option<u64>]) {
        assert_eq!(open.len(), self.banks as usize, "one open row per bank");
        assert!(
            self.row_words == self.banks,
            "uniform-model state has no open-row words"
        );
        for (bank, &row) in open.iter().enumerate() {
            self.set_word(self.row_base() + bank, row.map_or(0, |r| r + 1));
        }
    }

    /// Workload position slot `slot`.
    #[must_use]
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn position(&self, slot: usize) -> u64 {
        self.buf[self.pos_base + slot]
    }

    /// Sets a workload position slot, maintaining the incremental hash.
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn set_position(&mut self, slot: usize, value: u64) {
        self.set_word(self.pos_base + slot, value);
    }

    /// Copies a freshly written workload signature into the position
    /// slots, updating the hash only for slots that changed.
    ///
    /// # Panics
    /// If `signature` does not have one entry per slot.
    // vecmem-lint: allow-fn(L7) -- the size assert is the documented contract; a mismatch is a harness bug
    pub fn sync_signature(&mut self, signature: &[u64]) {
        assert_eq!(signature.len(), self.sig_len as usize, "signature size");
        for (slot, &v) in signature.iter().enumerate() {
            self.set_position(slot, v);
        }
    }

    /// Clock periods port `port`'s head request has waited so far.
    #[must_use]
    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub fn wait(&self, port: PortId) -> u64 {
        self.buf[self.wait_base + port.0]
    }

    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub(crate) fn bump_wait(&mut self, port: PortId) {
        let i = self.wait_base + port.0;
        self.buf[i] += 1;
    }

    // vecmem-lint: allow-fn(L7) -- buf index derives from the validated geometry that sized the buffer
    pub(crate) fn reset_wait(&mut self, port: PortId) {
        let i = self.wait_base + port.0;
        self.buf[i] = 0;
    }

    /// The hashed, compared core: rotation, residues, open rows (DRAM
    /// model only) and position slots. Two states with equal cores have
    /// identical futures (given the same configuration and workload
    /// dynamics).
    #[must_use]
    // vecmem-lint: allow-fn(L7) -- wait_base is within the buffer the constructor sized
    pub fn core(&self) -> &[u64] {
        &self.buf[..self.wait_base]
    }

    /// The incrementally maintained core hash.
    #[must_use]
    #[inline]
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// Re-hashes the core from scratch — the value [`Self::hash`] must
    /// always equal. Exposed for the incremental-hash soundness tests and
    /// for debugging; the hot paths never call it.
    #[must_use]
    // vecmem-lint: allow-fn(L7) -- key_base is within the buffer the constructor sized
    pub fn recompute_hash(&self) -> u64 {
        let keys = &self.buf[self.key_base..];
        self.core()
            .iter()
            .zip(keys)
            .fold(0, |h, (&word, &key)| h ^ mix64(key ^ word))
    }

    /// Per-port events of the last simulated clock period, in arbitration
    /// (input) order.
    #[must_use]
    pub fn outcomes(&self) -> &[PortEvent] {
        &self.outcomes
    }

    /// Declares an inclusive bound every position slot must stay within
    /// (`None` disables the check). Wired by the steady-state cursor from
    /// [`ObservableWorkload::signature_bound`](crate::steady::ObservableWorkload::signature_bound).
    pub fn set_slot_bound(&mut self, bound: Option<u64>) {
        self.slot_bound = bound;
    }

    /// Checks every structural invariant a reachable state satisfies:
    /// residues bounded by `n_c`, the rotation a valid port index,
    /// position slots within the workload's declared bound, and the
    /// incremental hash equal to a from-scratch recompute.
    ///
    /// Always compiled; the `sanitize` feature makes the step kernel call
    /// it after every cycle in debug builds.
    ///
    /// # Errors
    /// Returns the first [`InvariantViolation`] found, in the order above.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        for bank in 0..u64::from(self.banks) {
            let residue = self.residue(bank);
            if residue > self.max_residue {
                return Err(InvariantViolation::ResidueOverflow {
                    bank,
                    residue,
                    max: self.max_residue,
                });
            }
        }
        let rotation = self.rotation();
        if rotation >= self.ports.max(1) as usize {
            return Err(InvariantViolation::RotationOutOfRange {
                rotation,
                ports: self.ports,
            });
        }
        for bank in 0..u64::from(self.row_words) {
            if let Some(row) = self.open_row(bank) {
                if row >= self.max_rows {
                    return Err(InvariantViolation::OpenRowOutOfRange {
                        bank,
                        row,
                        rows: self.max_rows,
                    });
                }
            }
        }
        if let Some(bound) = self.slot_bound {
            for slot in 0..self.sig_len as usize {
                let position = self.position(slot);
                if position > bound {
                    return Err(InvariantViolation::PositionOutOfRange {
                        slot,
                        position,
                        bound,
                    });
                }
            }
        }
        let recomputed = self.recompute_hash();
        let incremental = self.hash();
        if incremental != recomputed {
            return Err(InvariantViolation::HashMismatch {
                incremental,
                recomputed,
            });
        }
        Ok(())
    }

    /// The canonical one-line-per-component dump used by divergence
    /// reports: rotation, residues, and (when present) position slots.
    #[must_use]
    pub fn render(&self) -> String {
        let mut s = String::new(); // vecmem-lint: allow(L2) -- divergence reporting only
        let _ = write!(
            s,
            "rotation={} residues={:?}",
            self.rotation(),
            self.residues_vec()
        );
        if self.row_words > 0 {
            let rows: Vec<Option<u64>> = (0..u64::from(self.banks))
                .map(|b| self.open_row(b))
                .collect(); // vecmem-lint: allow(L2) -- divergence reporting only
            let _ = write!(s, " open_rows={rows:?}");
        }
        if self.sig_len > 0 {
            let positions: Vec<u64> = (0..self.sig_len as usize)
                .map(|i| self.position(i))
                .collect(); // vecmem-lint: allow(L2) -- divergence reporting only
            let _ = write!(s, " positions={positions:?}");
        }
        s
    }
}

/// Core equality: same dimensions and same (rotation, residues,
/// positions). Wait counters, scratch buffers and absolute time are
/// deliberately excluded — they do not influence future behaviour.
impl PartialEq for SimState {
    fn eq(&self, other: &Self) -> bool {
        self.banks == other.banks
            && self.ports == other.ports
            && self.sig_len == other.sig_len
            && self.row_words == other.row_words
            && self.core() == other.core()
    }
}

impl Eq for SimState {}

#[cfg(test)]
mod tests {
    use super::*;
    use vecmem_analytic::Geometry;

    fn config(m: u64, nc: u64, ports: usize) -> SimConfig {
        SimConfig::single_cpu(Geometry::unsectioned(m, nc).unwrap(), ports)
    }

    #[test]
    fn validate_accepts_fresh_and_catches_violations() {
        let cfg = config(8, 3, 1);
        let mut st = SimState::with_signature_slots(&cfg, 1);
        assert_eq!(st.validate(), Ok(()));
        st.set_residue(2, 5);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::ResidueOverflow {
                bank: 2,
                residue: 5,
                max: 3,
            })
        );
        st.set_residue(2, 3);
        assert_eq!(st.validate(), Ok(()));
        st.set_slot_bound(Some(8));
        st.set_position(0, 9);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::PositionOutOfRange {
                slot: 0,
                position: 9,
                bound: 8,
            })
        );
        st.set_position(0, 8);
        assert_eq!(st.validate(), Ok(()));
        st.set_rotation(4);
        assert_eq!(
            st.validate(),
            Err(InvariantViolation::RotationOutOfRange {
                rotation: 4,
                ports: 1,
            })
        );
    }

    #[test]
    fn residue_packing_roundtrip() {
        let cfg = config(12, 4, 2);
        let mut s = SimState::new(&cfg);
        s.set_residue(0, 3);
        s.set_residue(7, 1);
        s.set_residue(11, 4);
        assert_eq!(s.residue(0), 3);
        assert_eq!(s.residue(7), 1);
        assert_eq!(s.residue(11), 4);
        assert_eq!(s.residue(5), 0);
        assert_eq!(s.residues_vec(), vec![3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4]);
    }

    #[test]
    fn decrement_ages_and_queues_freed_banks() {
        let cfg = config(12, 4, 2);
        let mut s = SimState::new(&cfg);
        s.set_residue(2, 2);
        s.set_residue(9, 1);
        s.decrement_residues();
        assert_eq!(s.residue(2), 1);
        assert_eq!(s.residue(9), 0);
        assert_eq!(s.just_freed, vec![9]);
        s.decrement_residues();
        assert_eq!(s.residue(2), 0);
        assert_eq!(s.just_freed, vec![2]);
        s.decrement_residues();
        assert!(s.just_freed.is_empty());
    }

    #[test]
    fn incremental_hash_matches_recompute() {
        let cfg = config(16, 4, 3);
        let mut s = SimState::with_signature_slots(&cfg, 3);
        assert_eq!(s.hash(), s.recompute_hash());
        s.set_residue(3, 4);
        s.set_residue(8, 2);
        s.set_position(0, 7);
        s.set_position(2, 15);
        s.set_rotation(2);
        assert_eq!(s.hash(), s.recompute_hash());
        s.decrement_residues();
        assert_eq!(s.hash(), s.recompute_hash());
        s.set_rotation(0);
        s.set_position(0, 0);
        assert_eq!(s.hash(), s.recompute_hash());
    }

    #[test]
    fn hash_is_the_documented_component_xor() {
        // Every core word contributes mix64(mix64(SEED ^ index) ^ value):
        // the precomputed keys must not change a single hash value.
        let component = |seed: u64, idx: u64, val: u64| mix64(mix64(seed ^ idx) ^ val);
        let cfg = config(12, 4, 2).with_bank_model(crate::config::BankModel::Dram {
            hit_cycle: 2,
            rows: 4,
        });
        let mut s = SimState::with_signature_slots(&cfg, 2);
        s.set_rotation(1);
        s.set_residue(3, 4);
        s.set_residue(9, 2);
        s.set_open_row(5, 3);
        s.set_position(0, 7);
        s.set_position(1, 11);
        s.bump_wait(PortId(1));
        let mut expected = component(ROT_SEED, 0, 1);
        expected ^= component(RES_SEED, 0, 4 << 24);
        expected ^= component(RES_SEED, 1, 2 << 8);
        for bank in 0..12 {
            expected ^= component(ROW_SEED, bank, if bank == 5 { 4 } else { 0 });
        }
        expected ^= component(POS_SEED, 0, 7) ^ component(POS_SEED, 1, 11);
        assert_eq!(s.hash(), expected);
        assert_eq!(s.recompute_hash(), expected);
    }

    #[test]
    fn equality_ignores_waits_and_time() {
        let cfg = config(8, 2, 2);
        let mut a = SimState::new(&cfg);
        let mut b = SimState::new(&cfg);
        a.bump_wait(PortId(0));
        a.advance_now();
        assert_eq!(a, b);
        b.set_residue(1, 2);
        assert_ne!(a, b);
        a.set_residue(1, 2);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn pack_matches_stepwise_construction() {
        let cfg = config(8, 3, 2);
        let packed = SimState::pack(&cfg, &[0, 2, 0, 0, 1, 0, 0, 0], &[4, 6], 1);
        let mut built = SimState::with_signature_slots(&cfg, 2);
        built.set_residue(1, 2);
        built.set_residue(4, 1);
        built.set_position(0, 4);
        built.set_position(1, 6);
        built.set_rotation(1);
        assert_eq!(packed, built);
        assert_eq!(packed.hash(), built.hash());
        assert_eq!(packed.hash(), packed.recompute_hash());
    }

    #[test]
    fn render_names_all_core_components() {
        let cfg = config(4, 2, 1);
        let s = SimState::pack(&cfg, &[0, 2, 0, 0], &[3], 0);
        let dump = s.render();
        assert!(dump.contains("rotation=0"), "{dump}");
        assert!(dump.contains("residues=[0, 2, 0, 0]"), "{dump}");
        assert!(dump.contains("positions=[3]"), "{dump}");
    }

    #[test]
    #[should_panic(expected = "u8 residue encoding")]
    fn oversized_bank_cycle_rejected() {
        let cfg = config(4, 300, 1);
        let _ = SimState::new(&cfg);
    }

    fn dram_config(m: u64, nc: u64, ports: usize, rows: u64) -> SimConfig {
        config(m, nc, ports).with_bank_model(crate::config::BankModel::Dram { hit_cycle: 1, rows })
    }

    #[test]
    fn uniform_model_packs_no_row_words() {
        let cfg = config(8, 3, 2);
        let s = SimState::with_signature_slots(&cfg, 2);
        assert_eq!(s.open_row(3), None);
        // Same dimensions with rows enabled: a distinct state kind.
        let d = SimState::with_signature_slots(&dram_config(8, 3, 2, 4), 2);
        assert_ne!(s, d);
    }

    #[test]
    fn open_rows_hash_and_compare() {
        let cfg = dram_config(8, 3, 1, 4);
        let mut a = SimState::new(&cfg);
        let b = SimState::new(&cfg);
        assert_eq!(a, b);
        a.set_open_row(2, 3);
        assert_eq!(a.open_row(2), Some(3));
        assert_eq!(a.open_row(1), None);
        assert_ne!(a, b);
        assert_ne!(a.hash(), b.hash());
        assert_eq!(a.hash(), a.recompute_hash());
        a.sync_open_rows(&[None; 8]);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn validate_catches_out_of_range_open_row() {
        let cfg = dram_config(8, 3, 1, 4);
        let mut s = SimState::new(&cfg);
        s.set_open_row(5, 3);
        assert_eq!(s.validate(), Ok(()));
        s.set_open_row(5, 4);
        assert_eq!(
            s.validate(),
            Err(InvariantViolation::OpenRowOutOfRange {
                bank: 5,
                row: 4,
                rows: 4,
            })
        );
        let msg = InvariantViolation::OpenRowOutOfRange {
            bank: 5,
            row: 4,
            rows: 4,
        }
        .to_string();
        assert!(msg.contains("open row 4"), "{msg}");
    }

    #[test]
    fn render_includes_open_rows_under_dram() {
        let cfg = dram_config(4, 2, 1, 4);
        let mut s = SimState::new(&cfg);
        s.set_open_row(1, 2);
        let dump = s.render();
        assert!(dump.contains("open_rows="), "{dump}");
        assert!(dump.contains("Some(2)"), "{dump}");
    }
}

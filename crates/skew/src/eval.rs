//! Evaluating skewing schemes on the cycle-accurate simulator.
//!
//! A [`MappedWorkload`] drives any [`AccessPattern`] through an arbitrary
//! [`BankMapping`]: the pattern generates word addresses, the mapping
//! turns them into banks. The steady-state machinery of `vecmem-banksim`
//! then yields exact effective bandwidths, so schemes can be compared
//! stride by stride against plain interleaving ([`stride_table`]), and
//! under indexed gathers too ([`gather_bandwidth`]).

use crate::scheme::BankMapping;
use vecmem_analytic::{Geometry, Ratio, StreamSpec};
use vecmem_banksim::pattern::{
    AccessPattern, GatherPattern, IndexPattern, PatternPort, PatternWorkload, StridePattern,
};
use vecmem_banksim::steady::{measure_steady_state_workload, ObservableWorkload, SteadyStateError};
use vecmem_banksim::{PortId, Request, SimConfig, Workload};

/// An infinite strided address stream evaluated through a bank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressStream {
    /// First word address.
    pub start: u64,
    /// Address stride.
    pub stride: u64,
}

/// An unsectioned geometry of `banks` banks with bank cycle `bank_cycle`,
/// both positive by the caller's contract.
fn unsectioned(banks: u64, bank_cycle: u64) -> Geometry {
    Geometry::unsectioned(banks, bank_cycle).expect("positive banks and bank cycle")
}

/// A [`PatternWorkload`] whose requests are routed through a
/// [`BankMapping`].
///
/// The patterns walk a virtual geometry of `mapping.address_period()`
/// banks, so each request's bank digit is its word address reduced modulo
/// the mapping period `P`; [`pending`](Workload::pending) maps that digit
/// through [`BankMapping::bank_of`]. Grants, ticks and the state signature
/// are the inner workload's: the reduced address (strides) or the reduced
/// index position (gathers) determines every future bank.
pub struct MappedWorkload<'a, M: BankMapping + ?Sized, P> {
    mapping: &'a M,
    inner: PatternWorkload<P>,
}

impl<'a, M: BankMapping + ?Sized> MappedWorkload<'a, M, StridePattern> {
    /// Infinite strided address streams; stream `i` drives port `i`.
    #[must_use]
    pub fn strided(mapping: &'a M, streams: &[AddressStream]) -> Self {
        let specs: Vec<StreamSpec> = streams
            .iter()
            .map(|s| StreamSpec {
                start_bank: s.start,
                distance: s.stride,
            })
            .collect();
        let geom = unsectioned(mapping.address_period(), 1);
        Self {
            mapping,
            inner: PatternWorkload::strided(&geom, &specs),
        }
    }
}

impl<'a, M: BankMapping + ?Sized> MappedWorkload<'a, M, GatherPattern> {
    /// A single-port gather over `base .. base + span`: `addr(k) = base +
    /// ix(k)`. Affine index vectors make it periodic in the element index,
    /// so the steady-state solver finds an exact cyclic state;
    /// pseudo-random indexing is aperiodic and measured with the budgeted
    /// windowed estimate.
    ///
    /// # Panics
    /// If `span` is zero.
    #[must_use]
    pub fn gather(mapping: &'a M, base: u64, span: u64, index: IndexPattern) -> Self {
        let geom = unsectioned(mapping.address_period(), 1);
        Self {
            mapping,
            inner: PatternWorkload::new(vec![PatternPort::new(GatherPattern::new(
                &geom, base, span, index,
            ))]),
        }
    }
}

impl<M: BankMapping + ?Sized, P: AccessPattern> Workload for MappedWorkload<'_, M, P> {
    fn pending(&self, port: PortId, now: u64) -> Option<Request> {
        let request = self.inner.pending(port, now)?;
        Some(Request::to_bank(self.mapping.bank_of(request.bank)))
    }

    fn granted(&mut self, port: PortId, now: u64) {
        self.inner.granted(port, now);
    }

    fn tick(&mut self, now: u64) {
        self.inner.tick(now);
    }

    fn is_finished(&self) -> bool {
        self.inner.is_finished()
    }
}

impl<M: BankMapping + ?Sized, P: AccessPattern> ObservableWorkload for MappedWorkload<'_, M, P> {
    fn signature_len(&self) -> usize {
        self.inner.signature_len()
    }

    fn write_signature(&self, out: &mut [u64]) {
        self.inner.write_signature(out);
    }

    fn signature_bound(&self) -> Option<u64> {
        self.inner.signature_bound()
    }

    fn periodic(&self) -> bool {
        self.inner.periodic()
    }
}

// Manual: a derive would demand `M: Clone`, but only the reference is
// copied (the steady-state solver replays pristine clones).
impl<M: BankMapping + ?Sized, P: Clone> Clone for MappedWorkload<'_, M, P> {
    fn clone(&self) -> Self {
        Self {
            mapping: self.mapping,
            inner: self.inner.clone(),
        }
    }
}

/// Steady-state bandwidth of a single-port indexed gather under a mapping
/// (exact for affine index vectors, windowed estimate for pseudo-random
/// ones).
///
/// # Errors
/// Returns a [`SteadyStateError`] when the state neither recurs nor can be
/// estimated within `max_cycles`.
pub fn gather_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    base: u64,
    span: u64,
    index: IndexPattern,
    max_cycles: u64,
) -> Result<Ratio, SteadyStateError> {
    assert_eq!(config.num_ports(), 1);
    let mut w = MappedWorkload::gather(mapping, base, span, index);
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
}

/// Steady-state bandwidth of one address stream under a mapping.
///
/// ```
/// use vecmem_skew::{eval::{single_stream_bandwidth, AddressStream}, Interleaved};
/// use vecmem_banksim::SimConfig;
/// use vecmem_analytic::{Geometry, Ratio};
/// let geom = Geometry::unsectioned(16, 4).unwrap();
/// let cfg = SimConfig::single_cpu(geom, 1);
/// let beff = single_stream_bandwidth(
///     &Interleaved { banks: 16 }, &cfg,
///     AddressStream { start: 0, stride: 8 }, 100_000,
/// ).unwrap();
/// assert_eq!(beff, Ratio::new(1, 2)); // r = 2 < n_c = 4
/// ```
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn single_stream_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    stream: AddressStream,
    max_cycles: u64,
) -> Result<Ratio, SteadyStateError> {
    assert_eq!(config.num_ports(), 1);
    let mut w = MappedWorkload::strided(mapping, &[stream]);
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
}

/// Steady-state bandwidth of a pair of address streams under a mapping.
///
/// # Errors
/// Returns a [`SteadyStateError`] when no cyclic state is found within
/// `max_cycles`.
pub fn pair_bandwidth<M: BankMapping + ?Sized>(
    mapping: &M,
    config: &SimConfig,
    streams: [AddressStream; 2],
    max_cycles: u64,
) -> Result<Ratio, SteadyStateError> {
    assert_eq!(config.num_ports(), 2);
    let mut w = MappedWorkload::strided(mapping, &streams);
    Ok(measure_steady_state_workload(config, &mut w, 0, max_cycles)?.beff)
}

/// One row of a scheme-comparison table: the bandwidth each stride achieves.
#[derive(Debug, Clone, PartialEq)]
pub struct StrideRow {
    /// The evaluated stride.
    pub stride: u64,
    /// Solo steady-state bandwidth under the scheme.
    pub solo: Ratio,
    /// Bandwidth of the pair (stride, 1) — the stream against a unit-stride
    /// competitor, as in the paper's triad environment.
    pub against_unit: Ratio,
}

/// Evaluates a scheme over strides `1..=max_stride`.
///
/// # Errors
/// Returns a [`SteadyStateError`] when any stride fails to reach a cyclic
/// state within `max_cycles`.
pub fn stride_table<M: BankMapping + ?Sized>(
    mapping: &M,
    geom_bank_cycle: u64,
    max_stride: u64,
    max_cycles: u64,
) -> Result<Vec<StrideRow>, SteadyStateError> {
    let geom = unsectioned(mapping.banks(), geom_bank_cycle);
    let solo_cfg = SimConfig::single_cpu(geom, 1);
    let pair_cfg = SimConfig::one_port_per_cpu(geom, 2);
    let mut rows = Vec::new();
    for stride in 1..=max_stride {
        let solo = single_stream_bandwidth(
            mapping,
            &solo_cfg,
            AddressStream { start: 0, stride },
            max_cycles,
        )?;
        let against_unit = pair_bandwidth(
            mapping,
            &pair_cfg,
            [
                AddressStream { start: 0, stride },
                AddressStream {
                    start: 1,
                    stride: 1,
                },
            ],
            max_cycles,
        )?;
        rows.push(StrideRow {
            stride,
            solo,
            against_unit,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LinearSkew;
    use crate::scheme::Interleaved;
    use crate::xorfold::XorFold;

    fn solo_cfg(m: u64, nc: u64) -> SimConfig {
        SimConfig::single_cpu(Geometry::unsectioned(m, nc).unwrap(), 1)
    }

    #[test]
    fn interleaved_matches_analytic_model() {
        // The Interleaved mapping must reproduce §III-A exactly.
        let m = 16;
        let nc = 4;
        let mapping = Interleaved { banks: m };
        let cfg = solo_cfg(m, nc);
        let geom = Geometry::unsectioned(m, nc).unwrap();
        for stride in 0..32 {
            let got = single_stream_bandwidth(
                &mapping,
                &cfg,
                AddressStream { start: 0, stride },
                100_000,
            )
            .unwrap();
            let spec = vecmem_analytic::StreamSpec::from_address(&geom, 0, stride);
            let want = vecmem_analytic::predict_single(&geom, &spec);
            assert_eq!(got, want, "stride = {stride}");
        }
    }

    #[test]
    fn xor_fold_fixes_power_of_two_strides() {
        // Plain interleaving: stride 16 on m = 16, n_c = 4 gives 1/4. The
        // XOR fold restores full bandwidth.
        let plain = single_stream_bandwidth(
            &Interleaved { banks: 16 },
            &solo_cfg(16, 4),
            AddressStream {
                start: 0,
                stride: 16,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(plain, Ratio::new(1, 4));
        let folded = single_stream_bandwidth(
            &XorFold::new(16),
            &solo_cfg(16, 4),
            AddressStream {
                start: 0,
                stride: 16,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(folded, Ratio::integer(1));
    }

    #[test]
    fn classic_skew_fixes_column_stride() {
        // Stride m (matrix column) is the worst case unskewed and perfect
        // with the classic skew.
        let m = 8;
        let skew = LinearSkew::classic(m);
        let beff = single_stream_bandwidth(
            &skew,
            &solo_cfg(m, 4),
            AddressStream {
                start: 0,
                stride: m,
            },
            100_000,
        )
        .unwrap();
        assert_eq!(beff, Ratio::integer(1));
    }

    #[test]
    fn stride_table_shape() {
        let rows = stride_table(&Interleaved { banks: 8 }, 2, 8, 100_000).unwrap();
        assert_eq!(rows.len(), 8);
        assert_eq!(rows[0].stride, 1);
        assert_eq!(rows[0].solo, Ratio::integer(1));
        // Stride 8 ≡ 0 (mod 8): r = 1, solo = 1/2 with n_c = 2.
        assert_eq!(rows[7].solo, Ratio::new(1, 2));
    }

    #[test]
    fn affine_gather_exact_and_mapping_sensitive() {
        // a = m on m banks: the unskewed gather hammers one bank (1/n_c);
        // the classic skew spreads the same address walk perfectly. Both
        // are exact periodic solutions, not windowed estimates.
        let m = 8;
        let cfg = solo_cfg(m, 4);
        let ix = IndexPattern::Affine { a: m, c: 0 };
        let plain =
            gather_bandwidth(&Interleaved { banks: m }, &cfg, 0, 1 << 16, ix, 100_000).unwrap();
        assert_eq!(plain, Ratio::new(1, 4));
        let skewed =
            gather_bandwidth(&LinearSkew::classic(m), &cfg, 0, 1 << 16, ix, 100_000).unwrap();
        assert_eq!(skewed, Ratio::integer(1));
    }

    #[test]
    fn unit_affine_gather_matches_unit_stride() {
        // ix(k) = k degenerates to the unit-stride stream: every mapping
        // must agree with its own single_stream_bandwidth answer.
        let cfg = solo_cfg(16, 4);
        for scheme in [
            &Interleaved { banks: 16 } as &dyn BankMapping,
            &LinearSkew::classic(16),
            &XorFold::new(16),
        ] {
            let gather = gather_bandwidth(
                scheme,
                &cfg,
                0,
                1 << 16,
                IndexPattern::Affine { a: 1, c: 0 },
                100_000,
            )
            .unwrap();
            let stream = single_stream_bandwidth(
                scheme,
                &cfg,
                AddressStream {
                    start: 0,
                    stride: 1,
                },
                100_000,
            )
            .unwrap();
            assert_eq!(gather, stream, "{}", scheme.name());
        }
    }

    #[test]
    fn random_gather_estimated_and_skew_insensitive() {
        // Pseudo-random indexing is aperiodic: the solver falls back to the
        // windowed estimate. No skew scheme can help (the address stream is
        // already pattern-free), so all mappings land in the same random
        // regime between 1/n_c and 1.
        let cfg = solo_cfg(16, 4);
        let ix = IndexPattern::PseudoRandom { seed: 11 };
        let mut beffs = Vec::new();
        for scheme in [
            &Interleaved { banks: 16 } as &dyn BankMapping,
            &LinearSkew::classic(16),
            &XorFold::new(16),
        ] {
            let mut w = MappedWorkload::gather(scheme, 0, 1 << 16, ix);
            let ss = measure_steady_state_workload(&cfg, &mut w, 0, 1 << 20).unwrap();
            assert!(!ss.exact, "{} should be a windowed estimate", scheme.name());
            let beff = ss.beff.to_f64();
            assert!(beff > 0.5 && beff < 0.95, "{}: {beff}", scheme.name());
            beffs.push(beff);
        }
        let (min, max) = (
            beffs.iter().cloned().fold(f64::INFINITY, f64::min),
            beffs.iter().cloned().fold(0.0, f64::max),
        );
        assert!(
            max - min < 0.1,
            "schemes diverged on random gather: {beffs:?}"
        );
    }

    #[test]
    fn unit_stride_under_all_schemes() {
        // Plain interleaving and linear skew keep unit stride perfect. The
        // XOR fold trades a sliver of unit-stride bandwidth (a reused bank
        // at some row transitions) for power-of-two robustness — a real,
        // documented cost of pseudo-random interleavings.
        let cfg = solo_cfg(16, 4);
        let exact: [(&dyn BankMapping, Ratio); 3] = [
            (&Interleaved { banks: 16 }, Ratio::integer(1)),
            (&LinearSkew::classic(16), Ratio::integer(1)),
            (&XorFold::new(16), Ratio::new(128, 131)),
        ];
        for (scheme, want) in exact {
            let mut w = MappedWorkload::strided(
                scheme,
                &[AddressStream {
                    start: 0,
                    stride: 1,
                }],
            );
            let ss = measure_steady_state_workload(&cfg, &mut w, 0, 100_000).unwrap();
            assert_eq!(ss.beff, want, "{}", scheme.name());
            assert!(ss.beff >= Ratio::new(9, 10), "{}", scheme.name());
        }
    }
}

//! Deterministic fault injection for the discrete-event simulator.
//!
//! Production fabrics are not the healthy networks the paper evaluates on:
//! links run degraded after lane failures, latencies spike under adaptive
//! rerouting, and individual nodes straggle (thermal throttling, background
//! daemons, failing DIMMs). A [`FaultPlan`] describes such a scenario as
//! explicit, deterministic data — no randomness at simulation time — so a
//! faulted run is exactly reproducible and the optimized simulator stays
//! pinned bit-identical to the reference ([`crate::sim::SimRequest::reference`])
//! under faults.
//!
//! Three fault families are modelled, mirroring how the cost parameters
//! enter the DES:
//!
//! * **link bandwidth degradation** — a per-link factor in `(0, 1]`
//!   multiplying the link's capacity before max–min fair sharing. Asymmetric
//!   factors turn a symmetric topology into a heterogeneous one, which is
//!   precisely what exercises the incremental fair-share rebuild.
//! * **link latency spikes** — extra microseconds added to every message
//!   routed over the link.
//! * **straggler ranks** — a per-rank compute slowdown `>= 1` dividing the
//!   rank's local copy and reduction bandwidth.
//!
//! A [`FaultPlan`] with no entries behaves as identity values (factor `1.0`,
//! spike `0.0`, slowdown `1.0`); the simulator applies those values through
//! bit-exact IEEE 754 identities (`x * 1.0`, `x / 1.0`, `x + 0.0` for
//! non-negative latencies), so a zero-fault plan is **bit-identical** to the
//! plan-free path — property-tested in `tests/proptests.rs`.
//!
//! [`FaultSpec`] draws a plan from a seed with a tiny splitmix64-based
//! hash (no RNG dependency): the same `(seed, topology size, rank count)`
//! always yields the same plan, on every platform.

/// An invalid fault parameter, reported by the [`FaultPlan`] builders and
/// by [`FaultSpec::validate`] instead of panicking (or, worse, silently
/// producing NaN simulation times).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// A bandwidth factor outside `(0, 1]`, or NaN.
    BadBandwidthFactor {
        /// The offending value.
        value: f64,
    },
    /// A latency spike that is negative, NaN or infinite.
    BadLatencySpike {
        /// The offending value.
        value: f64,
    },
    /// A compute slowdown below `1`, NaN or infinite.
    BadComputeSlowdown {
        /// The offending value.
        value: f64,
    },
    /// A crash or link-down time that is NaN or negative (use
    /// `f64::INFINITY`-free plans, i.e. simply no entry, for "never").
    BadFaultTime {
        /// The offending value.
        value: f64,
    },
    /// A [`FaultSpec`] incidence fraction outside `[0, 1]`, or NaN.
    BadFraction {
        /// Which fraction field is invalid.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::BadBandwidthFactor { value } => {
                write!(f, "bandwidth factor must be in (0, 1], got {value}")
            }
            FaultError::BadLatencySpike { value } => {
                write!(f, "latency spike must be finite and >= 0, got {value}")
            }
            FaultError::BadComputeSlowdown { value } => {
                write!(f, "compute slowdown must be finite and >= 1, got {value}")
            }
            FaultError::BadFaultTime { value } => {
                write!(f, "fault time must be finite and >= 0, got {value}")
            }
            FaultError::BadFraction { field, value } => {
                write!(f, "{field} must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Degradation of one link: a capacity factor and/or a latency spike.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Link id in the topology's `0..num_links()` space.
    pub link: usize,
    /// Multiplier on the link's bandwidth, in `(0, 1]`. `1.0` = healthy.
    pub bandwidth_factor: f64,
    /// Extra latency charged per message routed over the link, in µs.
    pub extra_latency_us: f64,
}

/// A straggling rank: its local copy and reduce bandwidths are divided by
/// `compute_slowdown`.
#[derive(Debug, Clone, PartialEq)]
pub struct Straggler {
    /// Rank id in the schedule's `0..num_ranks` space.
    pub rank: usize,
    /// Divisor on the rank's compute bandwidth, `>= 1.0`. `1.0` = healthy.
    pub compute_slowdown: f64,
}

/// A crash fault: `rank` fail-stops at `at_time_us`. From that instant the
/// rank starts no further sends; messages already in flight are delivered
/// (fail-stop at send granularity, the standard crash model).
#[derive(Debug, Clone, PartialEq)]
pub struct RankCrash {
    /// Rank id in the schedule's `0..num_ranks` space.
    pub rank: usize,
    /// Crash instant in simulated µs (`0.0` = dead from the start).
    pub at_time_us: f64,
}

/// A severed link: no message may *start* crossing `link` at or after
/// `at_time_us`. Flows already on the link complete.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkDown {
    /// Link id in the topology's `0..num_links()` space.
    pub link: usize,
    /// Cut instant in simulated µs (`0.0` = down from the start).
    pub at_time_us: f64,
}

/// A deterministic fault scenario for one simulation: which links are
/// degraded, spiked or severed, which ranks straggle, and which ranks crash.
/// See the module docs for the semantics of each fault family.
///
/// Entries are kept sorted by id and deduplicated (last write wins), so two
/// plans describing the same scenario compare equal — the simulator's static
/// cache uses that equality to decide whether cached link capacities are
/// still valid.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    link_faults: Vec<LinkFault>,
    stragglers: Vec<Straggler>,
    crashes: Vec<RankCrash>,
    link_downs: Vec<LinkDown>,
}

impl FaultPlan {
    /// The empty (zero-fault) plan: every accessor returns its identity
    /// value and simulation results are bit-identical to the plan-free path.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds (or overwrites) a bandwidth degradation for `link`; NaN and
    /// factors outside `(0, 1]` are a typed error.
    pub fn degrade_link(mut self, link: usize, factor: f64) -> Result<Self, FaultError> {
        if !(factor > 0.0 && factor <= 1.0) {
            return Err(FaultError::BadBandwidthFactor { value: factor });
        }
        self.link_entry(link).bandwidth_factor = factor;
        Ok(self)
    }

    /// Adds (or overwrites) a latency spike for `link`; NaN, infinities and
    /// negative spikes are a typed error.
    pub fn spike_link(mut self, link: usize, extra_us: f64) -> Result<Self, FaultError> {
        if !(extra_us.is_finite() && extra_us >= 0.0) {
            return Err(FaultError::BadLatencySpike { value: extra_us });
        }
        self.link_entry(link).extra_latency_us = extra_us;
        Ok(self)
    }

    /// Adds (or overwrites) a compute slowdown for `rank`; NaN, infinities
    /// and slowdowns below `1` are a typed error.
    pub fn straggler(mut self, rank: usize, slowdown: f64) -> Result<Self, FaultError> {
        if !(slowdown.is_finite() && slowdown >= 1.0) {
            return Err(FaultError::BadComputeSlowdown { value: slowdown });
        }
        match self.stragglers.binary_search_by_key(&rank, |s| s.rank) {
            Ok(i) => self.stragglers[i].compute_slowdown = slowdown,
            Err(i) => self.stragglers.insert(
                i,
                Straggler {
                    rank,
                    compute_slowdown: slowdown,
                },
            ),
        }
        Ok(self)
    }

    /// Adds (or overwrites) a crash fault: `rank` fail-stops at `at_us`.
    /// NaN, infinities and negative crash times are a typed error.
    pub fn crash_rank(mut self, rank: usize, at_us: f64) -> Result<Self, FaultError> {
        if !(at_us.is_finite() && at_us >= 0.0) {
            return Err(FaultError::BadFaultTime { value: at_us });
        }
        match self.crashes.binary_search_by_key(&rank, |c| c.rank) {
            Ok(i) => self.crashes[i].at_time_us = at_us,
            Err(i) => self.crashes.insert(
                i,
                RankCrash {
                    rank,
                    at_time_us: at_us,
                },
            ),
        }
        Ok(self)
    }

    /// Adds (or overwrites) a link cut: no message may start crossing
    /// `link` at or after `at_us`. NaN, infinities and negative cut times
    /// are a typed error.
    pub fn down_link(mut self, link: usize, at_us: f64) -> Result<Self, FaultError> {
        if !(at_us.is_finite() && at_us >= 0.0) {
            return Err(FaultError::BadFaultTime { value: at_us });
        }
        match self.link_downs.binary_search_by_key(&link, |c| c.link) {
            Ok(i) => self.link_downs[i].at_time_us = at_us,
            Err(i) => self.link_downs.insert(
                i,
                LinkDown {
                    link,
                    at_time_us: at_us,
                },
            ),
        }
        Ok(self)
    }

    fn link_entry(&mut self, link: usize) -> &mut LinkFault {
        let i = match self.link_faults.binary_search_by_key(&link, |f| f.link) {
            Ok(i) => i,
            Err(i) => {
                self.link_faults.insert(
                    i,
                    LinkFault {
                        link,
                        bandwidth_factor: 1.0,
                        extra_latency_us: 0.0,
                    },
                );
                i
            }
        };
        &mut self.link_faults[i]
    }

    /// Bandwidth multiplier for `link` (`1.0` when healthy).
    pub fn bandwidth_factor(&self, link: usize) -> f64 {
        match self.link_faults.binary_search_by_key(&link, |f| f.link) {
            Ok(i) => self.link_faults[i].bandwidth_factor,
            Err(_) => 1.0,
        }
    }

    /// Extra per-message latency for `link` in µs (`0.0` when healthy).
    pub fn extra_latency_us(&self, link: usize) -> f64 {
        match self.link_faults.binary_search_by_key(&link, |f| f.link) {
            Ok(i) => self.link_faults[i].extra_latency_us,
            Err(_) => 0.0,
        }
    }

    /// Compute-bandwidth divisor for `rank` (`1.0` when healthy).
    pub fn compute_slowdown(&self, rank: usize) -> f64 {
        match self.stragglers.binary_search_by_key(&rank, |s| s.rank) {
            Ok(i) => self.stragglers[i].compute_slowdown,
            Err(_) => 1.0,
        }
    }

    /// Crash instant of `rank` in µs, `f64::INFINITY` when it never crashes.
    /// The simulator compares send start times against this value; the
    /// infinity identity keeps healthy ranks on the exact unfaulted path.
    pub fn crash_time_us(&self, rank: usize) -> f64 {
        match self.crashes.binary_search_by_key(&rank, |c| c.rank) {
            Ok(i) => self.crashes[i].at_time_us,
            Err(_) => f64::INFINITY,
        }
    }

    /// Cut instant of `link` in µs, `f64::INFINITY` when it stays up.
    pub fn link_down_time_us(&self, link: usize) -> f64 {
        match self.link_downs.binary_search_by_key(&link, |c| c.link) {
            Ok(i) => self.link_downs[i].at_time_us,
            Err(_) => f64::INFINITY,
        }
    }

    /// The ranks with a crash entry, ascending.
    pub fn crashed_ranks(&self) -> impl Iterator<Item = usize> + '_ {
        self.crashes.iter().map(|c| c.rank)
    }

    /// Whether every entry is an identity (or there are no entries at all) —
    /// a zero plan simulates bit-identically to no plan. Crash and link-cut
    /// entries are never identities: any finite fault time kills at least
    /// the sends scheduled after it.
    pub fn is_zero(&self) -> bool {
        self.link_faults
            .iter()
            .all(|f| f.bandwidth_factor == 1.0 && f.extra_latency_us == 0.0)
            && self.stragglers.iter().all(|s| s.compute_slowdown == 1.0)
            && self.crashes.is_empty()
            && self.link_downs.is_empty()
    }

    /// The link fault entries, sorted by link id.
    pub fn link_faults(&self) -> &[LinkFault] {
        &self.link_faults
    }

    /// The straggler entries, sorted by rank id.
    pub fn stragglers(&self) -> &[Straggler] {
        &self.stragglers
    }

    /// The crash entries, sorted by rank id.
    pub fn crashes(&self) -> &[RankCrash] {
        &self.crashes
    }

    /// The link-cut entries, sorted by link id.
    pub fn link_downs(&self) -> &[LinkDown] {
        &self.link_downs
    }
}

/// Seeded recipe for drawing a [`FaultPlan`]: per-family incidence
/// fractions and severity bounds. [`FaultSpec::plan`] hashes
/// `(seed, family, id)` with splitmix64 — fully deterministic and
/// platform-independent, with no RNG dependency.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the per-entry hash; same seed, same plan.
    pub seed: u64,
    /// Fraction of links drawn as bandwidth-degraded, in `[0, 1]`.
    pub degraded_link_fraction: f64,
    /// Lower bound of the degraded bandwidth factor, in `(0, 1]`; a degraded
    /// link's factor is drawn uniformly from `[min_bandwidth_factor, 1)`.
    pub min_bandwidth_factor: f64,
    /// Fraction of links drawn as latency-spiked, in `[0, 1]`.
    pub spiked_link_fraction: f64,
    /// Upper bound of the latency spike in µs; drawn uniformly from
    /// `[0, max_latency_spike_us)`.
    pub max_latency_spike_us: f64,
    /// Fraction of ranks drawn as stragglers, in `[0, 1]`.
    pub straggler_fraction: f64,
    /// Upper bound of the straggler slowdown; drawn uniformly from
    /// `[1, max_compute_slowdown)`.
    pub max_compute_slowdown: f64,
}

impl FaultSpec {
    /// A moderately hostile default scenario: a tenth of the links at
    /// degraded bandwidth, a twentieth spiked, a sixteenth of ranks
    /// straggling up to 4x.
    pub fn moderate(seed: u64) -> Self {
        Self {
            seed,
            degraded_link_fraction: 0.10,
            min_bandwidth_factor: 0.25,
            spiked_link_fraction: 0.05,
            max_latency_spike_us: 20.0,
            straggler_fraction: 0.0625,
            max_compute_slowdown: 4.0,
        }
    }

    /// Checks every field for NaN and out-of-range values, reporting the
    /// first violation as a typed error. [`FaultSpec::plan`] calls this
    /// first and returns the violation.
    pub fn validate(&self) -> Result<(), FaultError> {
        let fraction = |field: &'static str, value: f64| {
            if (0.0..=1.0).contains(&value) {
                Ok(())
            } else {
                Err(FaultError::BadFraction { field, value })
            }
        };
        fraction("degraded_link_fraction", self.degraded_link_fraction)?;
        fraction("spiked_link_fraction", self.spiked_link_fraction)?;
        fraction("straggler_fraction", self.straggler_fraction)?;
        if !(self.min_bandwidth_factor > 0.0 && self.min_bandwidth_factor <= 1.0) {
            return Err(FaultError::BadBandwidthFactor {
                value: self.min_bandwidth_factor,
            });
        }
        if !(self.max_latency_spike_us.is_finite() && self.max_latency_spike_us >= 0.0) {
            return Err(FaultError::BadLatencySpike {
                value: self.max_latency_spike_us,
            });
        }
        if !(self.max_compute_slowdown.is_finite() && self.max_compute_slowdown >= 1.0) {
            return Err(FaultError::BadComputeSlowdown {
                value: self.max_compute_slowdown,
            });
        }
        Ok(())
    }

    /// Draws the plan for a system with `num_links` links and `num_ranks`
    /// ranks. Deterministic in `(self, num_links, num_ranks)`; a spec that
    /// fails [`FaultSpec::validate`] is its error.
    pub fn plan(&self, num_links: usize, num_ranks: usize) -> Result<FaultPlan, FaultError> {
        self.validate()?;
        let mut plan = FaultPlan::none();
        for link in 0..num_links {
            if unit(self.seed, 0, link) < self.degraded_link_fraction {
                let f = self.min_bandwidth_factor
                    + (1.0 - self.min_bandwidth_factor) * unit(self.seed, 1, link);
                plan = plan.degrade_link(link, f.min(1.0))?;
            }
            if unit(self.seed, 2, link) < self.spiked_link_fraction {
                plan =
                    plan.spike_link(link, self.max_latency_spike_us * unit(self.seed, 3, link))?;
            }
        }
        for rank in 0..num_ranks {
            if unit(self.seed, 4, rank) < self.straggler_fraction {
                let s = 1.0 + (self.max_compute_slowdown - 1.0) * unit(self.seed, 5, rank);
                plan = plan.straggler(rank, s.max(1.0))?;
            }
        }
        Ok(plan)
    }
}

/// splitmix64 of `x` — the standard finalizer, and the stateless mixer of
/// every seeded draw in the workspace (fault plans here, the compile-failure
/// and victim draws of the `bine-bench` chaos and crash harnesses): no RNG
/// state to share between threads, a draw depends only on `(seed, inputs)`.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, family, id)`.
fn unit(seed: u64, family: u64, id: usize) -> f64 {
    let h = splitmix64(seed ^ splitmix64(family ^ splitmix64(id as u64)));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_zero_and_returns_identities() {
        let plan = FaultPlan::none();
        assert!(plan.is_zero());
        assert_eq!(plan.bandwidth_factor(7), 1.0);
        assert_eq!(plan.extra_latency_us(7), 0.0);
        assert_eq!(plan.compute_slowdown(7), 1.0);
    }

    #[test]
    fn builders_sort_dedupe_and_overwrite() -> Result<(), FaultError> {
        let plan = FaultPlan::none()
            .degrade_link(5, 0.5)?
            .degrade_link(2, 0.75)?
            .spike_link(5, 10.0)?
            .degrade_link(5, 0.25)?
            .straggler(3, 2.0)?
            .straggler(1, 3.0)?
            .straggler(3, 4.0)?;
        assert_eq!(plan.bandwidth_factor(5), 0.25);
        assert_eq!(plan.extra_latency_us(5), 10.0);
        assert_eq!(plan.bandwidth_factor(2), 0.75);
        assert_eq!(plan.compute_slowdown(3), 4.0);
        assert_eq!(plan.compute_slowdown(1), 3.0);
        assert!(!plan.is_zero());
        let links: Vec<usize> = plan.link_faults().iter().map(|f| f.link).collect();
        assert_eq!(links, vec![2, 5]);
        let ranks: Vec<usize> = plan.stragglers().iter().map(|s| s.rank).collect();
        assert_eq!(ranks, vec![1, 3]);
        Ok(())
    }

    #[test]
    fn equal_scenarios_compare_equal_regardless_of_insertion_order() -> Result<(), FaultError> {
        let a = FaultPlan::none()
            .degrade_link(1, 0.5)?
            .degrade_link(9, 0.5)?;
        let b = FaultPlan::none()
            .degrade_link(9, 0.5)?
            .degrade_link(1, 0.5)?;
        assert_eq!(a, b);
        Ok(())
    }

    #[test]
    fn spec_is_deterministic_and_respects_bounds() -> Result<(), FaultError> {
        let spec = FaultSpec::moderate(42);
        let a = spec.plan(256, 64)?;
        let b = spec.plan(256, 64)?;
        assert_eq!(a, b);
        assert_ne!(a, FaultSpec::moderate(43).plan(256, 64)?);
        for f in a.link_faults() {
            assert!(f.bandwidth_factor > 0.0 && f.bandwidth_factor <= 1.0);
            assert!(f.extra_latency_us >= 0.0 && f.extra_latency_us < 20.0);
        }
        for s in a.stragglers() {
            assert!(s.compute_slowdown >= 1.0 && s.compute_slowdown < 4.0);
        }
        // The moderate fractions must actually draw faults at this size.
        assert!(!a.link_faults().is_empty());
        assert!(!a.stragglers().is_empty());
        Ok(())
    }

    #[test]
    fn try_builders_reject_nan_and_out_of_range_with_typed_errors() {
        assert_eq!(
            FaultPlan::none().degrade_link(0, 0.0),
            Err(FaultError::BadBandwidthFactor { value: 0.0 })
        );
        assert!(matches!(
            FaultPlan::none().degrade_link(0, f64::NAN),
            Err(FaultError::BadBandwidthFactor { value }) if value.is_nan()
        ));
        assert_eq!(
            FaultPlan::none().degrade_link(0, 1.5),
            Err(FaultError::BadBandwidthFactor { value: 1.5 })
        );
        assert_eq!(
            FaultPlan::none().spike_link(0, -1.0),
            Err(FaultError::BadLatencySpike { value: -1.0 })
        );
        assert!(matches!(
            FaultPlan::none().spike_link(0, f64::NAN),
            Err(FaultError::BadLatencySpike { value }) if value.is_nan()
        ));
        assert_eq!(
            FaultPlan::none().straggler(0, 0.5),
            Err(FaultError::BadComputeSlowdown { value: 0.5 })
        );
        assert_eq!(
            FaultPlan::none().straggler(0, f64::INFINITY),
            Err(FaultError::BadComputeSlowdown {
                value: f64::INFINITY
            })
        );
        assert_eq!(
            FaultPlan::none().crash_rank(0, -0.5),
            Err(FaultError::BadFaultTime { value: -0.5 })
        );
        assert!(matches!(
            FaultPlan::none().down_link(0, f64::NAN),
            Err(FaultError::BadFaultTime { value }) if value.is_nan()
        ));
        assert!(FaultPlan::none().crash_rank(3, 12.5).is_ok());
    }

    #[test]
    fn nan_error_values_still_compare_equal() {
        // FaultError derives PartialEq over f64 payloads; NaN != NaN would
        // make the assertions above vacuous, so pin the representation.
        let a = FaultPlan::none().spike_link(0, f64::NAN).unwrap_err();
        match a {
            FaultError::BadLatencySpike { value } => assert!(value.is_nan()),
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn crash_entries_sort_dedupe_and_default_to_never() -> Result<(), FaultError> {
        let plan = FaultPlan::none()
            .crash_rank(5, 10.0)?
            .crash_rank(1, 0.0)?
            .crash_rank(5, 7.5)?
            .down_link(9, 3.0)?;
        assert_eq!(plan.crash_time_us(5), 7.5);
        assert_eq!(plan.crash_time_us(1), 0.0);
        assert_eq!(plan.crash_time_us(2), f64::INFINITY);
        assert_eq!(plan.link_down_time_us(9), 3.0);
        assert_eq!(plan.link_down_time_us(0), f64::INFINITY);
        assert_eq!(plan.crashed_ranks().collect::<Vec<_>>(), vec![1, 5]);
        assert!(!plan.is_zero());
        // A crash at any finite time is a real fault, never an identity.
        assert!(!FaultPlan::none().crash_rank(0, 1e12)?.is_zero());
        Ok(())
    }

    #[test]
    fn spec_validation_rejects_nan_fields() {
        let mut spec = FaultSpec::moderate(1);
        assert_eq!(spec.validate(), Ok(()));
        spec.degraded_link_fraction = f64::NAN;
        assert!(matches!(
            spec.validate(),
            Err(FaultError::BadFraction {
                field: "degraded_link_fraction",
                ..
            })
        ));
        let mut spec = FaultSpec::moderate(1);
        spec.min_bandwidth_factor = 0.0;
        assert!(matches!(
            spec.plan(16, 8),
            Err(FaultError::BadBandwidthFactor { .. })
        ));
        let mut spec = FaultSpec::moderate(1);
        spec.max_compute_slowdown = 0.5;
        assert!(matches!(
            spec.validate(),
            Err(FaultError::BadComputeSlowdown { .. })
        ));
    }
}

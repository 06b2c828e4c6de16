//! System parameters (the paper's Table II).

use crate::{CoreError, Result};

/// Firing semantics of the fault, failure and repair transitions.
///
/// The paper leaves this implicit; calibration against its reported numbers
/// (see `DESIGN.md`) identifies **single-server** semantics: the transition
/// rate does not scale with the number of tokens, matching the threat model
/// "attackers can compromise the accuracy of one ML module per time".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ServerSemantics {
    /// Rate is constant while the transition is enabled (default; calibrated
    /// to the paper's reported values).
    #[default]
    SingleServer,
    /// Rate scales with the token count of the transition's input place
    /// (each module degrades/fails/repairs independently).
    InfiniteServer,
}

/// Distribution of the rejuvenation-completion transition `Trj`.
///
/// Table II writes `1/μr = #Pmr × 3 s` alongside the exponential rates, so
/// the default is exponential; the deterministic variant exists for
/// ablation studies (note: the analytic solver cannot handle it together
/// with the rejuvenation clock — two concurrently enabled deterministic
/// transitions — so it is simulation-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RejuvenationDistribution {
    /// Exponential with mean `#Pmr × unit` (default).
    #[default]
    Exponential,
    /// Deterministic with delay `#Pmr × unit` (simulation-only).
    Deterministic,
}

/// Parameters of an N-version perception system, mirroring the paper's
/// Table II.
///
/// Build with [`SystemParams::builder`], or start from the paper's
/// evaluated configurations [`SystemParams::paper_four_version`] /
/// [`SystemParams::paper_six_version`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemParams {
    /// Number of ML module versions (paper: 4 or 6).
    pub n: u32,
    /// Number of compromised modules the voting scheme tolerates (paper: 1).
    pub f: u32,
    /// Number of modules that may simultaneously rejuvenate or recover
    /// (paper: 1).
    pub r: u32,
    /// Whether the time-based rejuvenation mechanism is present.
    pub rejuvenation: bool,
    /// Error-probability dependency between modules, `α ∈ [0, 1]`
    /// (paper default 0.5).
    pub alpha: f64,
    /// Inaccuracy of a healthy ML module, `p` (paper default 0.08).
    pub p: f64,
    /// Inaccuracy of a compromised ML module, `p' > p` (paper default 0.5).
    pub p_prime: f64,
    /// Mean time to compromise/degrade a module, `1/λc` in seconds
    /// (paper default 1523 s, transition `Tc`).
    pub mean_time_to_compromise: f64,
    /// Mean time for a compromised module to stop, `1/λ` in seconds
    /// (paper default 3000 s, transition `Tf`).
    pub mean_time_to_failure: f64,
    /// Mean time to repair a non-operational module, `1/μ` in seconds
    /// (paper default 3 s, transition `Tr`).
    pub mean_time_to_repair: f64,
    /// Per-module rejuvenation time unit in seconds; the rejuvenation batch
    /// takes `#Pmr ×` this value on average (paper default 3 s, transition
    /// `Trj`).
    pub rejuvenation_unit: f64,
    /// Rejuvenation interval, `1/γ` in seconds (paper default 600 s,
    /// transition `Trc`).
    pub rejuvenation_interval: f64,
    /// Firing semantics of `Tc`/`Tf`/`Tr`.
    pub semantics: ServerSemantics,
    /// Distribution of the rejuvenation-completion transition.
    pub rejuvenation_distribution: RejuvenationDistribution,
    /// Whether repair (`Tr`) shares the `r` budget with rejuvenation: §II-B
    /// speaks of "r replicas simultaneously rejuvenating **or recovering**",
    /// but Figure 2 (c) attaches guard `g2` only to `Trj1`/`Trj2`. The
    /// default `false` matches the figure (and the calibrated numbers); the
    /// `true` variant guards `Tr` with `#Pmr < r` for ablation.
    pub repair_shares_budget: bool,
}

impl SystemParams {
    /// The four-version system evaluated in the paper (§V, Table II):
    /// `N = 4`, `f = 1`, no rejuvenation, voting threshold `2f + 1 = 3`.
    pub fn paper_four_version() -> Self {
        SystemParams {
            n: 4,
            f: 1,
            r: 1,
            rejuvenation: false,
            ..Self::paper_defaults()
        }
    }

    /// The six-version system evaluated in the paper (§V, Table II):
    /// `N = 6`, `f = 1`, `r = 1`, time-based rejuvenation, voting threshold
    /// `2f + r + 1 = 4`.
    pub fn paper_six_version() -> Self {
        Self::paper_defaults()
    }

    fn paper_defaults() -> Self {
        SystemParams {
            n: 6,
            f: 1,
            r: 1,
            rejuvenation: true,
            alpha: 0.5,
            p: 0.08,
            p_prime: 0.5,
            mean_time_to_compromise: 1523.0,
            mean_time_to_failure: 3000.0,
            mean_time_to_repair: 3.0,
            rejuvenation_unit: 3.0,
            rejuvenation_interval: 600.0,
            semantics: ServerSemantics::SingleServer,
            rejuvenation_distribution: RejuvenationDistribution::Exponential,
            repair_shares_budget: false,
        }
    }

    /// Starts a builder pre-populated with the paper's default values for a
    /// six-version rejuvenating system.
    pub fn builder() -> SystemParamsBuilder {
        SystemParamsBuilder {
            params: Self::paper_defaults(),
        }
    }

    /// The voting threshold: correct outputs required for a correct
    /// perception output — `2f + 1` without rejuvenation (assumption A.2),
    /// `2f + r + 1` with rejuvenation (assumption A.3).
    pub fn voting_threshold(&self) -> u32 {
        if self.rejuvenation {
            2 * self.f + self.r + 1
        } else {
            2 * self.f + 1
        }
    }

    /// Minimum module count required by the BFT bound:
    /// `3f + 1` without rejuvenation, `3f + 2r + 1` with it (§II-B).
    pub fn required_modules(&self) -> u32 {
        if self.rejuvenation {
            3 * self.f + 2 * self.r + 1
        } else {
            3 * self.f + 1
        }
    }

    /// Validates all parameter constraints.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] describing the first violated
    /// constraint:
    ///
    /// * probabilities `alpha`, `p`, `p_prime` in `[0, 1]`;
    /// * all mean times strictly positive and finite;
    /// * `f ≥ 1`, `r ≥ 1` (with rejuvenation);
    /// * `n ≥ 3f + 1` (without rejuvenation) or `n ≥ 3f + 2r + 1` (with).
    pub fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("alpha", self.alpha),
            ("p", self.p),
            ("p_prime", self.p_prime),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(CoreError::InvalidParameter {
                    what,
                    constraint: format!("must lie in [0, 1], got {v}"),
                });
            }
        }
        for (what, v) in [
            ("mean_time_to_compromise", self.mean_time_to_compromise),
            ("mean_time_to_failure", self.mean_time_to_failure),
            ("mean_time_to_repair", self.mean_time_to_repair),
            ("rejuvenation_unit", self.rejuvenation_unit),
            ("rejuvenation_interval", self.rejuvenation_interval),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(CoreError::InvalidParameter {
                    what,
                    constraint: format!("must be positive and finite, got {v}"),
                });
            }
        }
        if self.f == 0 {
            return Err(CoreError::InvalidParameter {
                what: "f",
                constraint: "must be at least 1".into(),
            });
        }
        if self.rejuvenation && self.r == 0 {
            return Err(CoreError::InvalidParameter {
                what: "r",
                constraint: "must be at least 1 when rejuvenation is enabled".into(),
            });
        }
        let required = self.required_modules();
        if self.n < required {
            return Err(CoreError::InvalidParameter {
                what: "n",
                constraint: format!(
                    "must be at least {required} for f = {}{}",
                    self.f,
                    if self.rejuvenation {
                        format!(", r = {} with rejuvenation", self.r)
                    } else {
                        String::new()
                    }
                ),
            });
        }
        Ok(())
    }

    /// Compromise rate `λc = 1 / mean_time_to_compromise`.
    pub fn lambda_c(&self) -> f64 {
        1.0 / self.mean_time_to_compromise
    }

    /// Failure rate `λ = 1 / mean_time_to_failure`.
    pub fn lambda(&self) -> f64 {
        1.0 / self.mean_time_to_failure
    }

    /// Repair rate `μ = 1 / mean_time_to_repair`.
    pub fn mu(&self) -> f64 {
        1.0 / self.mean_time_to_repair
    }
}

/// Builder for [`SystemParams`].
///
/// Starts from the paper's six-version defaults; every setter returns the
/// builder for chaining, and [`SystemParamsBuilder::build`] validates the
/// result.
///
/// # Example
///
/// ```
/// use nvp_core::params::SystemParams;
///
/// # fn main() -> Result<(), nvp_core::CoreError> {
/// let params = SystemParams::builder()
///     .n(9)
///     .f(2)
///     .r(1)
///     .rejuvenation_interval(450.0)
///     .build()?;
/// assert_eq!(params.voting_threshold(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystemParamsBuilder {
    params: SystemParams,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, value: $ty) -> Self {
            self.params.$name = value;
            self
        }
    };
}

impl SystemParamsBuilder {
    setter!(
        /// Sets the number of module versions.
        n: u32
    );
    setter!(
        /// Sets the tolerated number of compromised modules.
        f: u32
    );
    setter!(
        /// Sets the number of simultaneously rejuvenating modules.
        r: u32
    );
    setter!(
        /// Enables or disables the rejuvenation mechanism.
        rejuvenation: bool
    );
    setter!(
        /// Sets the inter-module error dependency `α`.
        alpha: f64
    );
    setter!(
        /// Sets the healthy-module inaccuracy `p`.
        p: f64
    );
    setter!(
        /// Sets the compromised-module inaccuracy `p'`.
        p_prime: f64
    );
    setter!(
        /// Sets the mean time to compromise `1/λc` (seconds).
        mean_time_to_compromise: f64
    );
    setter!(
        /// Sets the mean time to failure `1/λ` (seconds).
        mean_time_to_failure: f64
    );
    setter!(
        /// Sets the mean time to repair `1/μ` (seconds).
        mean_time_to_repair: f64
    );
    setter!(
        /// Sets the per-module rejuvenation time unit (seconds).
        rejuvenation_unit: f64
    );
    setter!(
        /// Sets the rejuvenation interval `1/γ` (seconds).
        rejuvenation_interval: f64
    );
    setter!(
        /// Sets the firing semantics of `Tc`/`Tf`/`Tr`.
        semantics: ServerSemantics
    );
    setter!(
        /// Sets the distribution of the rejuvenation-completion transition.
        rejuvenation_distribution: RejuvenationDistribution
    );
    setter!(
        /// Makes repair share the `r` budget with rejuvenation (ablation).
        repair_shares_budget: bool
    );

    /// Validates and returns the parameters.
    ///
    /// # Errors
    ///
    /// See [`SystemParams::validate`].
    pub fn build(self) -> Result<SystemParams> {
        self.params.validate()?;
        Ok(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table2() {
        let p4 = SystemParams::paper_four_version();
        assert_eq!(p4.n, 4);
        assert_eq!(p4.f, 1);
        assert!(!p4.rejuvenation);
        assert_eq!(p4.voting_threshold(), 3);
        p4.validate().unwrap();

        let p6 = SystemParams::paper_six_version();
        assert_eq!(p6.n, 6);
        assert_eq!(p6.f, 1);
        assert_eq!(p6.r, 1);
        assert!(p6.rejuvenation);
        assert_eq!(p6.voting_threshold(), 4);
        assert_eq!(p6.alpha, 0.5);
        assert_eq!(p6.p, 0.08);
        assert_eq!(p6.p_prime, 0.5);
        assert_eq!(p6.mean_time_to_compromise, 1523.0);
        assert_eq!(p6.mean_time_to_failure, 3000.0);
        assert_eq!(p6.mean_time_to_repair, 3.0);
        assert_eq!(p6.rejuvenation_unit, 3.0);
        assert_eq!(p6.rejuvenation_interval, 600.0);
        p6.validate().unwrap();
    }

    #[test]
    fn rates_are_reciprocals() {
        let p = SystemParams::paper_six_version();
        assert!((p.lambda_c() - 1.0 / 1523.0).abs() < 1e-15);
        assert!((p.lambda() - 1.0 / 3000.0).abs() < 1e-15);
        assert!((p.mu() - 1.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn bft_bound_enforced() {
        // n = 3 < 3f + 1 = 4.
        let err = SystemParams::builder()
            .n(3)
            .rejuvenation(false)
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { what: "n", .. }));
        // With rejuvenation: n = 5 < 3f + 2r + 1 = 6.
        let err = SystemParams::builder().n(5).build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidParameter { what: "n", .. }));
        // Boundary cases pass.
        SystemParams::builder()
            .n(4)
            .rejuvenation(false)
            .build()
            .unwrap();
        SystemParams::builder().n(6).build().unwrap();
    }

    #[test]
    fn probability_domains_enforced() {
        for (setter, name) in [
            (
                Box::new(|b: SystemParamsBuilder| b.alpha(1.5)) as Box<dyn Fn(_) -> _>,
                "alpha",
            ),
            (Box::new(|b: SystemParamsBuilder| b.p(-0.1)), "p"),
            (
                Box::new(|b: SystemParamsBuilder| b.p_prime(f64::NAN)),
                "p_prime",
            ),
        ] {
            let err = setter(SystemParams::builder()).build().unwrap_err();
            match err {
                CoreError::InvalidParameter { what, .. } => assert_eq!(what, name),
                other => panic!("expected InvalidParameter, got {other:?}"),
            }
        }
    }

    #[test]
    fn time_domains_enforced() {
        assert!(SystemParams::builder()
            .mean_time_to_repair(0.0)
            .build()
            .is_err());
        assert!(SystemParams::builder()
            .rejuvenation_interval(-5.0)
            .build()
            .is_err());
        assert!(SystemParams::builder()
            .mean_time_to_compromise(f64::INFINITY)
            .build()
            .is_err());
    }

    #[test]
    fn f_and_r_must_be_positive() {
        assert!(SystemParams::builder().f(0).build().is_err());
        assert!(SystemParams::builder().r(0).build().is_err());
        // r = 0 is fine without rejuvenation.
        SystemParams::builder()
            .r(0)
            .rejuvenation(false)
            .n(4)
            .build()
            .unwrap();
    }

    #[test]
    fn builder_chains_and_overrides() {
        let p = SystemParams::builder()
            .n(9)
            .f(2)
            .r(1)
            .alpha(0.25)
            .rejuvenation_interval(450.0)
            .semantics(ServerSemantics::InfiniteServer)
            .build()
            .unwrap();
        assert_eq!(p.n, 9);
        assert_eq!(p.voting_threshold(), 6);
        assert_eq!(p.alpha, 0.25);
        assert_eq!(p.semantics, ServerSemantics::InfiniteServer);
    }

    #[test]
    fn thresholds_follow_bft_formulas() {
        let no_rejuv = SystemParams::builder()
            .n(7)
            .f(2)
            .rejuvenation(false)
            .build()
            .unwrap();
        assert_eq!(no_rejuv.voting_threshold(), 5); // 2f+1
        assert_eq!(no_rejuv.required_modules(), 7); // 3f+1

        let rejuv = SystemParams::builder().n(9).f(2).r(1).build().unwrap();
        assert_eq!(rejuv.voting_threshold(), 6); // 2f+r+1
        assert_eq!(rejuv.required_modules(), 9); // 3f+2r+1
    }
}

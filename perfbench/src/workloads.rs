//! The benchmark's three workloads, frozen.
//!
//! Every knob is written out here rather than taken from the experiment
//! suite (`drams_bench::scenarios`) or from `MonitorConfig::default()`,
//! so an edit there cannot silently change what this benchmark measures.
//! The overload values are those of the E14 flash crowd; the attack mix
//! is the paper's Figure-1 federation under four simultaneous threats.
//! Only the seed comes from the command line.

use drams_attack::{CompositeAdversary, ThreatKind};
use drams_core::monitor::MonitorConfig;
use drams_core::scenario::{
    DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, ScenarioSpec, MIN_RETENTION,
};
use drams_faas::des::{MILLIS, SECONDS};
use drams_faas::fault::FaultPlan;
use drams_faas::model::{FederationSpec, LatencyModel};
use drams_faas::pep::EnforcementBias;
use drams_policy::attr::{AttributeId, Category};
use drams_policy::combining::CombiningAlg;
use drams_policy::decision::Effect;
use drams_policy::expr::{Expr, Func};
use drams_policy::policy::{Policy, PolicySet};
use drams_policy::rule::Rule;
use drams_policy::target::Target;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The honest overload run: E14's flash-crowd profile, central PDP.
    FlashCrowd,
    /// Figure 1 under attack: three clouds, a PDP per cloud, four threats.
    Figure1Attack,
    /// Central steady state over real loopback TCP.
    TcpSteady,
}

/// Requests issued by one `flash_crowd` run. The ×4 spike opens near
/// request 21k; this size runs well into it, so the PEP admission cap
/// sheds and every retention and compaction mechanism does work.
const FLASH_CROWD_REQUESTS: u64 = 30_000;
/// Requests issued by one `figure1_attack` run.
const FIGURE1_ATTACK_REQUESTS: u64 = 10_000;
/// Requests issued by one `tcp_steady` run.
const TCP_STEADY_REQUESTS: u64 = 5_000;
/// Firing probability of each of the four threats on `figure1_attack`.
const THREAT_PROBABILITY: f64 = 0.01;

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::FlashCrowd,
        Workload::Figure1Attack,
        Workload::TcpSteady,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FlashCrowd => "flash_crowd",
            Workload::Figure1Attack => "figure1_attack",
            Workload::TcpSteady => "tcp_steady",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is attacked (and so expected to alert).
    pub fn attacked(self) -> bool {
        self == Workload::Figure1Attack
    }

    /// Whether the workload runs over the real TCP transport.
    pub fn over_tcp(self) -> bool {
        self == Workload::TcpSteady
    }

    /// Requests one run issues.
    pub fn requests(self) -> u64 {
        match self {
            Workload::FlashCrowd => FLASH_CROWD_REQUESTS,
            Workload::Figure1Attack => FIGURE1_ATTACK_REQUESTS,
            Workload::TcpSteady => TCP_STEADY_REQUESTS,
        }
    }

    /// The workload's scenario for one seed.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        let requests = self.requests();
        match self {
            Workload::FlashCrowd => ScenarioSpec {
                load: overload_profile(),
                ..plain_spec(
                    "flash_crowd",
                    config(seed, 2, requests, 3_000.0),
                    PdpPlacement::Central,
                )
            },
            Workload::Figure1Attack => plain_spec(
                "figure1_attack",
                config(seed, 3, requests, 150.0),
                PdpPlacement::PerCloud,
            ),
            Workload::TcpSteady => plain_spec(
                "tcp_steady",
                config(seed, 2, requests, 150.0),
                PdpPlacement::Central,
            ),
        }
    }

    /// The workload's adversary for one seed (empty on honest workloads).
    pub fn adversary(self, seed: u64) -> CompositeAdversary {
        let mut adversary = CompositeAdversary::new();
        if self.attacked() {
            for (i, threat) in [
                ThreatKind::TamperRequest,
                ThreatKind::CorruptDecision,
                ThreatKind::DropLog,
                ThreatKind::ReplayLog,
            ]
            .into_iter()
            .enumerate()
            {
                let threat_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1);
                adversary = adversary.with(threat, THREAT_PROBABILITY, threat_seed);
            }
        }
        adversary
    }
}

fn plain_spec(name: &str, config: MonitorConfig, placement: PdpPlacement) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_string(),
        config,
        phases: Vec::new(),
        placement,
        script: Vec::new(),
        faults: FaultPlan::default(),
        load: LoadProfile::default(),
    }
}

/// The deployment knobs shared by all workloads: `clouds` member clouds
/// of two tenants with two services each.
fn config(seed: u64, clouds: u32, total_requests: u64, rate: f64) -> MonitorConfig {
    let mut federation = FederationSpec::symmetric(clouds, 2, 2);
    federation.intra_tenant = LatencyModel {
        base: MILLIS / 2,
        jitter: MILLIS / 4,
    };
    federation.tenant_to_infra = LatencyModel {
        base: 5 * MILLIS,
        jitter: 2 * MILLIS,
    };
    federation.to_logging_interface = LatencyModel {
        base: MILLIS / 4,
        jitter: MILLIS / 10,
    };
    MonitorConfig {
        federation,
        policy: federation_policy(),
        bias: EnforcementBias::DenyBiased,
        request_rate_per_sec: rate,
        total_requests,
        horizon: 600 * SECONDS,
        block_interval: 500 * MILLIS,
        epoch_blocks: 2,
        group_timeout: 2 * SECONDS,
        li_batch_size: 8,
        li_flush_interval: 100 * MILLIS,
        analyser_poll_interval: 250 * MILLIS,
        monitoring_enabled: true,
        analyser_enabled: true,
        seed,
    }
}

/// E14's overload profile: a 2,000-tenant Zipf(1.1) population, a
/// diurnal trough then peak, one ×4 flash crowd from 10 s to 14 s, and
/// every bounded-state mechanism armed at its tightest safe setting.
fn overload_profile() -> LoadProfile {
    LoadProfile {
        population: 2_000,
        zipf_exponent: 1.1,
        diurnal: vec![
            DiurnalBand {
                start: 0,
                multiplier_permille: 700,
            },
            DiurnalBand {
                start: 10 * SECONDS,
                multiplier_permille: 1_200,
            },
        ],
        spikes: vec![FlashCrowd {
            from: 10 * SECONDS,
            until: 14 * SECONDS,
            multiplier_permille: 4_000,
        }],
        pep_inflight_cap: 96,
        li_resident_cap: 512,
        idempotency_retention: MIN_RETENTION,
        analyser_retire_lag: MIN_RETENTION,
        policy_history_retention: MIN_RETENTION,
        chain_compact_interval: 8,
    }
}

/// The federation's authorised policy: doctors may do anything, nurses
/// may read before 20:00, everything else is denied.
fn federation_policy() -> PolicySet {
    let role = |v: &str| {
        Expr::equal(
            Expr::attr(AttributeId::new(Category::Subject, "role")),
            Expr::lit(v),
        )
    };
    PolicySet::builder("federation-root", CombiningAlg::DenyUnlessPermit)
        .policy(
            Policy::builder("clinical-access", CombiningAlg::PermitOverrides)
                .rule(
                    Rule::builder("doctors-any-action", Effect::Permit)
                        .target(Target::expr(role("doctor")))
                        .build(),
                )
                .rule(
                    Rule::builder("nurses-read-daytime", Effect::Permit)
                        .target(Target::expr(role("nurse")))
                        .condition(Expr::and(vec![
                            Expr::equal(
                                Expr::attr(AttributeId::new(Category::Action, "id")),
                                Expr::lit("read"),
                            ),
                            Expr::Apply(
                                Func::Less,
                                vec![
                                    Expr::attr(AttributeId::new(Category::Environment, "hour")),
                                    Expr::lit(20i64),
                                ],
                            ),
                        ]))
                        .build(),
                )
                .build(),
        )
        .build()
}

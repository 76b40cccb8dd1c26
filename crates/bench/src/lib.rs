//! Shared helpers for the DRAMS benchmark & experiment harness.
//!
//! The experiment catalogue (DESIGN.md §3, EXPERIMENTS.md) is generated by
//! the `run_experiments` binary; the Criterion benches under `benches/`
//! cover the timing-shaped fragments of each experiment.

use drams_core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_core::probe::Probe;
use drams_crypto::aead::SymmetricKey;
use drams_faas::model::{PepId, TenantId};
use drams_faas::msg::{CorrelationId, RequestEnvelope};
use drams_policy::attr::Request;

/// Builds a log entry whose sealed payload is approximately `payload_size`
/// bytes (the knob of experiment E1).
#[must_use]
pub fn log_entry_of_size(correlation: u64, payload_size: usize) -> LogEntry {
    let key = SymmetricKey::from_bytes([9; 32]);
    let mut probe = Probe::new(ProbeId(1), key, [4; 32]);
    // Pad the request with an attribute of the requested size so the
    // sealed envelope grows accordingly.
    let padding = "x".repeat(payload_size);
    let env = RequestEnvelope {
        correlation: CorrelationId(correlation),
        tenant: TenantId(1),
        pep: PepId(1),
        service: "svc".into(),
        request: Request::builder()
            .subject("role", "doctor")
            .resource("blob", padding.as_str())
            .build(),
        issued_at: 0,
    };
    probe.observe_request(ObservationPoint::PepRequest, &env, 0)
}

/// Formats a microsecond quantity as milliseconds with 2 decimals.
#[must_use]
pub fn ms(us: f64) -> String {
    format!("{:.2}", us / 1_000.0)
}

/// A batch of `size` Schnorr signatures spread over `keys` signer
/// identities — a block's worth of Logging Interface submissions.
///
/// This is the single fixture behind the `bench_crypto` batch targets
/// *and* experiment E9, so the criterion numbers and the committed
/// `BENCH_CRYPTO.json` trajectory always measure the same workload.
/// Borrow with [`batch_items`] to call `schnorr::batch_verify`.
#[must_use]
pub fn schnorr_batch(
    keys: usize,
    size: usize,
) -> Vec<(drams_crypto::PublicKey, Vec<u8>, drams_crypto::Signature)> {
    let kps: Vec<drams_crypto::Keypair> = (0..keys)
        .map(|i| drams_crypto::Keypair::from_seed(format!("bench-li-{i}").as_bytes()))
        .collect();
    (0..size)
        .map(|i| {
            let kp = &kps[i % kps.len()];
            let msg = format!("log batch entry {i}").into_bytes();
            let sig = kp.sign(&msg);
            (kp.public(), msg, sig)
        })
        .collect()
}

/// Borrows a [`schnorr_batch`] fixture in the shape
/// [`drams_crypto::schnorr::batch_verify`] takes.
#[must_use]
pub fn batch_items(
    owned: &[(drams_crypto::PublicKey, Vec<u8>, drams_crypto::Signature)],
) -> Vec<(drams_crypto::PublicKey, &[u8], drams_crypto::Signature)> {
    owned
        .iter()
        .map(|(pk, msg, sig)| (*pk, msg.as_slice(), *sig))
        .collect()
}

pub mod trajectory;

/// The named end-to-end scenario matrix of experiment E10.
///
/// Each scenario is a declarative [`drams_core::scenario::ScenarioSpec`]
/// over the event-driven
/// runtime (`drams_core::scenario`): steady state, burst with tenant
/// churn, mid-flight policy flip, a degraded Logging Interface, and a
/// per-cloud PDP federation. `run_experiments e10` runs the matrix and
/// commits `BENCH_E2E.json` (see [`trajectory`]); the same specs back the
/// `bench_e2e` criterion targets and the integration tests, so every
/// consumer measures identical workloads.
pub mod scenarios {
    use drams_core::monitor::MonitorConfig;
    use drams_core::scenario::{
        CrashTarget, DiurnalBand, FlashCrowd, LoadProfile, PdpPlacement, Phase, ScenarioSpec,
        ScriptedAction, MIN_RETENTION,
    };
    use drams_faas::des::{MILLIS, SECONDS};
    use drams_faas::fault::{FaultPlan, LinkFault, PartitionWindow, Site};
    use drams_faas::model::{CloudId, FederationSpec, TenantId};
    use drams_policy::attr::{AttributeId, Category};
    use drams_policy::combining::CombiningAlg;
    use drams_policy::decision::Effect;
    use drams_policy::expr::Expr;
    use drams_policy::policy::{Policy, PolicySet};
    use drams_policy::rule::Rule;
    use drams_policy::target::Target;

    fn base_config(quick: bool) -> MonitorConfig {
        MonitorConfig {
            total_requests: if quick { 120 } else { 400 },
            request_rate_per_sec: 150.0,
            ..MonitorConfig::default()
        }
    }

    /// A stricter mid-run policy: only doctors, nothing else.
    #[must_use]
    pub fn doctors_only_policy() -> PolicySet {
        PolicySet::builder("strict-root", CombiningAlg::DenyUnlessPermit)
            .policy(
                Policy::builder("doctors-only", CombiningAlg::PermitOverrides)
                    .rule(
                        Rule::builder("doctors", Effect::Permit)
                            .target(Target::expr(Expr::equal(
                                Expr::attr(AttributeId::new(Category::Subject, "role")),
                                Expr::lit("doctor"),
                            )))
                            .build(),
                    )
                    .build(),
            )
            .build()
    }

    /// Constant load on the classic central-PDP topology.
    #[must_use]
    pub fn steady_state(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "steady_state".to_string(),
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// A 5x arrival burst mid-run, with a tenant joining before the burst
    /// and another leaving during it.
    #[must_use]
    pub fn burst_churn(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 150 } else { 600 };
        config.request_rate_per_sec = 100.0;
        ScenarioSpec {
            name: "burst_churn".to_string(),
            config,
            phases: vec![
                Phase {
                    start: 0,
                    rate_per_sec: 100.0,
                },
                Phase {
                    start: SECONDS,
                    rate_per_sec: 500.0,
                },
                Phase {
                    start: 3 * SECONDS,
                    rate_per_sec: 100.0,
                },
            ],
            placement: PdpPlacement::Central,
            script: vec![
                ScriptedAction::TenantJoin {
                    at: 800 * MILLIS,
                    cloud: CloudId(0),
                    services: 2,
                },
                ScriptedAction::TenantLeave {
                    at: 2500 * MILLIS,
                    tenant: TenantId(2),
                },
            ],
            faults: FaultPlan::default(),
            load: LoadProfile::default(),
        }
    }

    /// Legitimate policy churn: a stricter version is published
    /// mid-flight and rolled back shortly after. Must raise zero alerts.
    #[must_use]
    pub fn policy_flip(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "policy_flip".to_string(),
            script: vec![
                ScriptedAction::PublishPolicy {
                    at: 400 * MILLIS,
                    policy: doctors_only_policy(),
                },
                ScriptedAction::RollbackPolicy {
                    at: 900 * MILLIS,
                    version: 0,
                },
            ],
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// Fault window: tenant 1's Logging Interface stalls for longer than
    /// the group timeout — the monitor must surface the degradation as
    /// missing-observation alerts.
    #[must_use]
    pub fn degraded_li(quick: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: "degraded_li".to_string(),
            script: vec![ScriptedAction::StallLi {
                at: 200 * MILLIS,
                until: 2800 * MILLIS,
                tenant: TenantId(1),
            }],
            ..ScenarioSpec::canonical(&base_config(quick))
        }
    }

    /// The paper's Figure-1 federation: three clouds, each deciding
    /// locally with its own PDP.
    #[must_use]
    pub fn federated_pdp(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.federation = FederationSpec::symmetric(3, 2, 2);
        ScenarioSpec {
            name: "federated_pdp".to_string(),
            placement: PdpPlacement::PerCloud,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// The whole E10 matrix, in table order.
    #[must_use]
    pub fn matrix(quick: bool) -> Vec<ScenarioSpec> {
        vec![
            steady_state(quick),
            burst_churn(quick),
            policy_flip(quick),
            degraded_li(quick),
            federated_pdp(quick),
        ]
    }

    /// Looks a scenario up by name (E10, E11 and E13 matrices).
    #[must_use]
    pub fn by_name(name: &str, quick: bool) -> Option<ScenarioSpec> {
        matrix(quick)
            .into_iter()
            .chain(recovery_matrix(quick))
            .chain(fault_matrix(quick))
            .find(|s| s.name == name)
    }

    fn crash_scenario(name: &str, quick: bool, target: CrashTarget) -> ScenarioSpec {
        let mut config = base_config(quick);
        // Dense enough that the crash lands with work in flight: a
        // partially filled LI batch, a non-empty mempool, checked and
        // unchecked groups.
        config.request_rate_per_sec = 250.0;
        ScenarioSpec {
            name: name.to_string(),
            script: vec![ScriptedAction::CrashRestart {
                at: 450 * MILLIS,
                target,
            }],
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// The E11 crash-restart matrix: each monitoring-plane service is
    /// killed mid-run and restarted from its durable store. The
    /// acceptance bar (asserted by `run_experiments e11` and
    /// `tests/recovery.rs`) is byte-identical alerts and ground truth
    /// against the uninterrupted twin of each scenario
    /// ([`strip_crashes`]).
    #[must_use]
    pub fn recovery_matrix(quick: bool) -> Vec<ScenarioSpec> {
        vec![
            crash_scenario("crash_chain", quick, CrashTarget::ChainNode),
            crash_scenario("crash_li", quick, CrashTarget::Li(TenantId(1))),
            crash_scenario(
                "crash_infra_li",
                quick,
                CrashTarget::Li(TenantId::INFRASTRUCTURE),
            ),
            crash_scenario("crash_analyser", quick, CrashTarget::Analyser),
            crash_scenario("crash_pdp", quick, CrashTarget::Pdp(CloudId(0))),
        ]
    }

    /// A lossy wildcard link: every message has a 20% drop chance while
    /// the window is active. Shared between the `lossy_links` honest
    /// scenario and E13's detection-under-faults runs.
    #[must_use]
    pub fn lossy_plan() -> FaultPlan {
        FaultPlan {
            links: vec![LinkFault {
                drop_permille: 200,
                active_from: 0,
                active_until: 2 * SECONDS,
                ..LinkFault::default()
            }],
            partitions: Vec::new(),
        }
    }

    /// The E13 fault matrix: declared network-fault plans (plus one
    /// scripted PDP outage) that the robustness layer must fully mask —
    /// the acceptance bar is zero alerts and zero abandoned requests in
    /// every scenario, with the fault plane's counters proving the
    /// faults actually fired.
    #[must_use]
    pub fn fault_matrix(quick: bool) -> Vec<ScenarioSpec> {
        let config = base_config(quick);
        let lossy = ScenarioSpec {
            name: "lossy_links".to_string(),
            faults: lossy_plan(),
            ..ScenarioSpec::canonical(&config)
        };
        let dup_reorder = ScenarioSpec {
            name: "dup_reorder_delay".to_string(),
            faults: FaultPlan {
                links: vec![LinkFault {
                    duplicate_permille: 300,
                    reorder_permille: 200,
                    reorder_spread: 5 * MILLIS,
                    delay: 10 * MILLIS,
                    jitter: 5 * MILLIS,
                    active_from: 0,
                    active_until: 1500 * MILLIS,
                    ..LinkFault::default()
                }],
                partitions: Vec::new(),
            },
            ..ScenarioSpec::canonical(&config)
        };
        let partition = ScenarioSpec {
            name: "partition_li_spill".to_string(),
            faults: FaultPlan {
                links: Vec::new(),
                partitions: vec![PartitionWindow {
                    a: Site::Cloud(CloudId(0)),
                    b: Site::Infra,
                    from: 200 * MILLIS,
                    until: 1200 * MILLIS,
                }],
            },
            ..ScenarioSpec::canonical(&config)
        };
        // Scripted (undeclared) outage shorter than the group timeout:
        // the breaker fails new interceptions over to a healthy cloud
        // while slot-sticky stragglers complete after the outage ends.
        let outage = ScenarioSpec {
            name: "pdp_outage_failover".to_string(),
            placement: PdpPlacement::PerCloud,
            script: vec![ScriptedAction::SilencePdp {
                at: 0,
                until: 1500 * MILLIS,
                cloud: CloudId(0),
            }],
            ..ScenarioSpec::canonical(&config)
        };
        vec![lossy, dup_reorder, partition, outage]
    }

    /// The uninterrupted twin of a scenario: the same spec with every
    /// [`ScriptedAction::CrashRestart`] removed. E11 compares a crashed
    /// run against its twin.
    #[must_use]
    pub fn strip_crashes(spec: &ScenarioSpec) -> ScenarioSpec {
        let mut twin = spec.clone();
        twin.name = format!("{}_uninterrupted", spec.name);
        twin.script
            .retain(|a| !matches!(a, ScriptedAction::CrashRestart { .. }));
        twin
    }

    /// The E14 overload profile: a 2000-tenant Zipf-skewed population,
    /// a diurnal trough-then-peak schedule, one ×4 flash crowd, and
    /// every bounded-state mechanism armed (PEP admission cap, LI
    /// resident cap, idempotency retention, group retirement, chain
    /// journal compaction). Shared by every E14 scenario so honest,
    /// attacked and crashed runs stress identical machinery.
    #[must_use]
    pub fn overload_profile() -> LoadProfile {
        LoadProfile {
            population: 2000,
            zipf_exponent: 1.1,
            diurnal: vec![
                DiurnalBand {
                    start: 0,
                    multiplier_permille: 700, // overnight trough
                },
                DiurnalBand {
                    start: 10 * SECONDS,
                    multiplier_permille: 1200, // business-hours peak
                },
            ],
            spikes: vec![FlashCrowd {
                from: 10 * SECONDS,
                until: 14 * SECONDS,
                multiplier_permille: 4000,
            }],
            pep_inflight_cap: 96,
            li_resident_cap: 512,
            idempotency_retention: MIN_RETENTION,
            analyser_retire_lag: MIN_RETENTION,
            policy_history_retention: MIN_RETENTION,
            chain_compact_interval: 8,
        }
    }

    /// E14 part 1: an honest flash crowd — ≥100k requests even in quick
    /// mode, Poisson arrivals riding the diurnal schedule into a ×4
    /// spike that overruns the PEP admission cap. The acceptance bar is
    /// zero alerts, shed overflow, and every peak-state column bounded.
    #[must_use]
    pub fn flash_crowd(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 100_000 } else { 250_000 };
        config.request_rate_per_sec = if quick { 3_000.0 } else { 6_000.0 };
        ScenarioSpec {
            name: "flash_crowd".to_string(),
            load: overload_profile(),
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E14 parts 2 and 3 base: the same overload profile at campaign
    /// scale, with the admission cap tightened so the spike sheds even
    /// at the smaller volume. Attack campaigns and the crash twin ride
    /// on this spec.
    #[must_use]
    pub fn overload_attack_base(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 20_000 } else { 50_000 };
        config.request_rate_per_sec = if quick { 2_000.0 } else { 5_000.0 };
        let mut load = overload_profile();
        load.pep_inflight_cap = 32;
        load.spikes = vec![FlashCrowd {
            from: 2 * SECONDS,
            until: 6 * SECONDS,
            multiplier_permille: 8000,
        }];
        ScenarioSpec {
            name: "overload_attack_base".to_string(),
            load,
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E15: the E14 flash crowd scaled up — one million requests in
    /// full mode — as the end-to-end parallel-lane workload. The
    /// arrival rate stays moderate so group retirement and history
    /// pruning keep tracked state bounded over the much longer run.
    #[must_use]
    pub fn mega_crowd(quick: bool) -> ScenarioSpec {
        let mut config = base_config(quick);
        config.total_requests = if quick { 200_000 } else { 1_000_000 };
        config.request_rate_per_sec = if quick { 6_000.0 } else { 10_000.0 };
        ScenarioSpec {
            name: "flash_crowd_1m".to_string(),
            load: overload_profile(),
            ..ScenarioSpec::canonical(&config)
        }
    }

    /// E14 part 3: the crash-under-overload scenario — a PDP dies in
    /// the middle of the flash crowd and must recover byte-identical to
    /// its uninterrupted twin while shedding is active.
    #[must_use]
    pub fn overload_crash(quick: bool) -> ScenarioSpec {
        let mut spec = overload_attack_base(quick);
        spec.name = "overload_crash_pdp".to_string();
        spec.script = vec![ScriptedAction::CrashRestart {
            at: 4 * SECONDS, // mid-spike, with shedding active
            target: CrashTarget::Pdp(CloudId(0)),
        }];
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::trajectory::*;
    use super::*;
    use std::path::Path;

    fn file(name: &str) -> &'static TrajectoryFile {
        FILES
            .iter()
            .find(|f| f.file == name)
            .expect("a trajectory file")
    }

    /// Renders `name` from `fresh` sections, carrying the rest over from
    /// the `previous` file text.
    fn render(name: &str, fresh: &[(String, Object)], previous: Option<&str>) -> String {
        let previous = previous.map(|p| Trajectory::parse(p).expect("previous parses"));
        file(name).assemble(fresh, previous.as_ref()).render()
    }

    /// The committed file at the repository root.
    fn committed(name: &str) -> Trajectory {
        file(name).committed().unwrap().expect("committed file")
    }

    /// The committed file's only (or named) section, as a fresh section.
    fn committed_section(name: &str, section: &str) -> Vec<(String, Object)> {
        let t = committed(name);
        vec![(
            section.to_string(),
            t.section(section).expect("section").clone(),
        )]
    }

    /// The object a gate path names: the section itself, a nested
    /// object, or the first row of a list; and the column within it.
    fn target<'a>(section: &'a mut Object, path: &'a str) -> (&'a mut Object, &'a str) {
        let Some((part, column)) = path.split_once('.') else {
            return (section, path);
        };
        let row = match section.get_mut(part).expect("part") {
            Value::Object(obj) => obj,
            Value::List(rows) => match &mut rows[0] {
                Value::Object(obj) => obj,
                other => panic!("not a row: {other}"),
            },
            other => panic!("not a part: {other}"),
        };
        (row, column)
    }

    fn set(sections: &mut [(String, Object)], path: &str, value: impl Into<Value>) {
        let (row, column) = target(&mut sections[0].1, path);
        *row.get_mut(column).expect("column") = value.into();
    }

    fn get(sections: &mut [(String, Object)], path: &str) -> f64 {
        let (row, column) = target(&mut sections[0].1, path);
        row.get(column).and_then(Value::as_f64).expect("number")
    }

    #[test]
    fn log_entry_size_tracks_request() {
        let small = log_entry_of_size(1, 64);
        let large = log_entry_of_size(1, 8192);
        assert!(large.wire_len() > small.wire_len() + 8000);
    }

    #[test]
    fn trajectory_json_is_balanced_and_complete() {
        assert_rewrites_committed_file("BENCH_PDP.json");
    }

    #[test]
    fn trajectory_json_omits_absent_sections() {
        let json = render("BENCH_PDP.json", &[], None);
        assert_eq!(json, "{\n  \"schema\": \"drams-bench-pdp/v2\"\n}\n");
    }

    #[test]
    fn partial_runs_carry_the_other_section_forward() {
        // An e5-only quick rerun keeps the committed e6 section and its
        // mode, and vice versa.
        assert_carries_forward("BENCH_PDP.json");
    }

    #[test]
    fn extract_section_bracket_matches() {
        let doc = "{\n  \"schema\": \"s\",\n  \"a\": {\"x\": \"br]a\\\"ce}\", \"y\": [ {\"z\": 1} ]},\n  \"b\": {\"y\": 1}\n}";
        let t = Trajectory::parse(doc).unwrap();
        let a = t.section("a").unwrap();
        assert_eq!(a.get("x"), Some(&Value::Str("br]a\"ce}".into())));
        assert_eq!(t.section("b"), Some(&Object::new().with("y", 1u64)));
        assert!(t.section("c").is_none());
        // Quotes and backslashes survive a write and a read.
        let escaped = Trajectory {
            schema: "s".into(),
            sections: vec![("a".into(), Object::new().with("x", "q\"\\]"))],
        };
        assert_eq!(Trajectory::parse(&escaped.render()).unwrap(), escaped);
        for broken in [
            "",
            "[]",
            "{\"a\": 1}",
            "{\"schema\": \"s\", \"a\": 1}",
            "{\"schema\": \"s\"} x",
        ] {
            assert!(Trajectory::parse(broken).is_err(), "{broken:?} parsed");
        }
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        let row = Object::new()
            .with("compiled_cached_us_per_decision", f64::NAN)
            .with("speedup_compiled_vs_interpreter", ratio(1.0, 0.0));
        let fresh = (
            "e5_pdp_scaling".into(),
            section(false, Object::new().with("rows", vec![row])),
        );
        let json = render("BENCH_PDP.json", &[fresh], None);
        assert!(json.contains("\"compiled_cached_us_per_decision\": null"));
        assert!(json.contains("\"speedup_compiled_vs_interpreter\": null"));
    }

    fn assert_at_repo_root(name: &str) {
        let path = repo_file(name);
        assert!(path.ends_with(name));
        assert!(path.parent().unwrap().join("Cargo.toml").exists());
        assert!(path.exists(), "{} is not committed", path.display());
    }

    #[test]
    fn trajectory_path_points_at_repo_root() {
        for f in &FILES {
            assert_at_repo_root(f.file);
        }
    }

    #[test]
    fn repo_root_resolves_past_the_benchmark_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap();
        let perfbench = root.join("perfbench");
        assert!(perfbench.join("Cargo.toml").exists());
        assert_eq!(repo_root_from(&perfbench).as_deref(), Some(root.as_path()));
        assert_eq!(
            repo_root_from(Path::new(env!("CARGO_MANIFEST_DIR"))).as_deref(),
            Some(root.as_path())
        );
    }

    /// A run that produced every section of `name` with the committed
    /// values writes the committed text byte for byte.
    fn assert_rewrites_committed_file(name: &str) {
        let text = std::fs::read_to_string(file(name).path()).unwrap();
        let t = committed(name);
        assert_eq!(t.schema, file(name).schema);
        let json = render(name, &t.sections, None);
        assert_eq!(json, text, "{name} is not in the writer's layout");
    }

    /// Sections a run did not produce are carried over verbatim with
    /// their own `quick` flag; a rerun section replaces only itself, and
    /// writing the same run again is stable.
    fn assert_carries_forward(name: &str) {
        let text = std::fs::read_to_string(file(name).path()).unwrap();
        assert_eq!(render(name, &[], Some(&text)), text);
        let t = committed(name);
        for (k, (section, fields)) in t.sections.iter().enumerate() {
            let mut rerun = fields.clone();
            let quick = rerun.get_mut("quick").unwrap();
            *quick = Value::Bool(*quick != Value::Bool(true));
            let fresh = [(section.clone(), rerun)];
            let partial = render(name, &fresh, Some(&text));
            let mut expected = t.clone();
            expected.sections[k] = fresh[0].clone();
            assert_eq!(Trajectory::parse(&partial).unwrap(), expected);
            assert_eq!(render(name, &fresh, Some(&partial)), partial);
        }
        let empty = format!("{{\n  \"schema\": \"{}\"\n}}\n", file(name).schema);
        assert_eq!(render(name, &[], None), empty);
    }

    #[test]
    fn committed_trajectories_round_trip_and_pass_their_gates() {
        for f in &FILES {
            let t = committed(f.file);
            let names: Vec<&str> = t.sections.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, f.sections, "{}", f.file);
            assert_eq!(Trajectory::parse(&t.render()).unwrap(), t, "{}", f.file);
            assert_rewrites_committed_file(f.file);
            assert!(f.gate_failures(&t.sections, None).is_empty(), "{}", f.file);
            assert!(
                f.gate_failures(&t.sections, Some(&t)).is_empty(),
                "{}",
                f.file
            );
        }
    }

    /// Breaks each gated column of `name`'s committed file in turn and
    /// checks that the gate reports it.
    fn assert_every_gate_trips(name: &str) {
        for gate in GATES.iter().filter(|g| g.file == name) {
            let previous = committed(gate.file);
            let mut sections = committed_section(gate.file, gate.section);
            let bad = match gate.check {
                Check::True => Value::Bool(false),
                Check::Zero => Value::Int(1),
                Check::Positive => Value::Int(0),
                Check::EqualTo(other) => {
                    let other = format!("{}.{other}", gate.column.split_once('.').unwrap().0);
                    Value::Int(get(&mut sections, &other) as u64 + 1)
                }
                Check::EqualToDifference(a, b) => {
                    let part = gate.column.split_once('.').unwrap().0;
                    let a = get(&mut sections, &format!("{part}.{a}"));
                    let b = get(&mut sections, &format!("{part}.{b}"));
                    Value::Int((a - b) as u64 + 1)
                }
                Check::NotBelowCommitted(factor) => {
                    Value::Float(get(&mut sections, gate.column) * factor * 0.9)
                }
                Check::NotAboveCommitted(factor) => {
                    Value::Float(get(&mut sections, gate.column) * factor + 1.0)
                }
            };
            set(&mut sections, gate.column, bad);
            let failures = file(gate.file).gate_failures(&sections, Some(&previous));
            let column = gate.column.rsplit('.').next().unwrap();
            assert!(
                failures
                    .iter()
                    .any(|f| f.contains(&format!(" {column} = "))),
                "{gate:?} did not trip: {failures:?}"
            );
        }
    }

    #[test]
    fn every_gate_trips_on_a_synthetic_violation() {
        for f in &FILES {
            assert_every_gate_trips(f.file);
        }
    }

    #[test]
    fn relative_gates_skip_other_modes_zero_baselines_and_absent_rows() {
        let e2e = file("BENCH_E2E.json");
        let previous = committed("BENCH_E2E.json");
        let mut slow = committed_section("BENCH_E2E.json", "e10_scenarios");
        let before = get(&mut slow, "rows.sim_speedup");
        set(&mut slow, "rows.sim_speedup", before * 0.49);
        assert_eq!(e2e.gate_failures(&slow, Some(&previous)).len(), 1);
        // A slowdown just inside the bound passes.
        let mut ok = slow.clone();
        set(&mut ok, "rows.sim_speedup", before * 0.5);
        assert!(e2e.gate_failures(&ok, Some(&previous)).is_empty());
        // No committed file, another mode, a zero baseline, or a scenario
        // the committed file lacks: nothing to compare against.
        assert!(e2e.gate_failures(&slow, None).is_empty());
        let mut other_mode = previous.clone();
        let quick = other_mode.sections[0].1.get_mut("quick").unwrap();
        *quick = Value::Bool(*quick != Value::Bool(true));
        assert!(e2e.gate_failures(&slow, Some(&other_mode)).is_empty());
        let mut zero = previous.clone();
        set(&mut zero.sections, "rows.sim_speedup", 0.0);
        assert!(e2e.gate_failures(&slow, Some(&zero)).is_empty());
        let mut renamed = previous.clone();
        set(&mut renamed.sections, "rows.scenario", "retired_scenario");
        assert!(e2e.gate_failures(&slow, Some(&renamed)).is_empty());
        // Same rules for the peak-state ceiling.
        let load = file("BENCH_LOAD.json");
        let previous = committed("BENCH_LOAD.json");
        let mut grown = committed_section("BENCH_LOAD.json", "e14_load");
        let peak = get(&mut grown, "honest.peak_contract_storage");
        set(&mut grown, "honest.peak_contract_storage", 2.0 * peak);
        assert!(load.gate_failures(&grown, Some(&previous)).is_empty());
        set(&mut grown, "honest.peak_contract_storage", 2.0 * peak + 1.0);
        assert_eq!(load.gate_failures(&grown, Some(&previous)).len(), 1);
        let mut zero = previous.clone();
        set(&mut zero.sections, "honest.peak_contract_storage", 0u64);
        assert!(load.gate_failures(&grown, Some(&zero)).is_empty());
    }

    #[test]
    fn crypto_trajectory_json_is_balanced_and_complete() {
        assert_rewrites_committed_file("BENCH_CRYPTO.json");
    }

    #[test]
    fn crypto_trajectory_carries_forward_when_not_rerun() {
        assert_carries_forward("BENCH_CRYPTO.json");
    }

    #[test]
    fn crypto_trajectory_path_points_at_repo_root() {
        assert_at_repo_root("BENCH_CRYPTO.json");
    }

    #[test]
    fn e2e_trajectory_json_is_balanced_and_complete() {
        assert_rewrites_committed_file("BENCH_E2E.json");
    }

    #[test]
    fn e2e_trajectory_carries_forward_when_not_rerun() {
        assert_carries_forward("BENCH_E2E.json");
    }

    #[test]
    fn e2e_trajectory_path_points_at_repo_root() {
        assert_at_repo_root("BENCH_E2E.json");
    }

    #[test]
    fn store_trajectory_json_is_balanced_and_carries_forward() {
        // An engine-only rerun carries the recovery rows forward.
        assert_rewrites_committed_file("BENCH_STORE.json");
        assert_carries_forward("BENCH_STORE.json");
    }

    #[test]
    fn store_trajectory_path_points_at_repo_root() {
        assert_at_repo_root("BENCH_STORE.json");
    }

    #[test]
    fn fault_trajectory_json_is_balanced_and_complete() {
        // The committed fault rows hold `null` for figures with no sample.
        assert_rewrites_committed_file("BENCH_FAULT.json");
    }

    #[test]
    fn fault_summary_clean_flags_every_violation_kind() {
        // A false positive, an abandoned request, a missed detection, a
        // false positive under attack, a twin divergence.
        assert_every_gate_trips("BENCH_FAULT.json");
    }

    #[test]
    fn fault_trajectory_carries_forward_when_not_rerun() {
        assert_carries_forward("BENCH_FAULT.json");
    }

    #[test]
    fn fault_trajectory_path_points_at_repo_root() {
        assert_at_repo_root("BENCH_FAULT.json");
    }

    #[test]
    fn load_trajectory_json_is_balanced_and_parses_back() {
        assert_rewrites_committed_file("BENCH_LOAD.json");
        assert_carries_forward("BENCH_LOAD.json");
    }

    #[test]
    fn load_summary_clean_flags_every_violation_kind() {
        assert_every_gate_trips("BENCH_LOAD.json");
        // Two violations that need more than one column edited.
        let load = file("BENCH_LOAD.json");
        let mut unshed = committed_section("BENCH_LOAD.json", "e14_load");
        let requests = get(&mut unshed, "honest.requests");
        set(&mut unshed, "honest.shed", 0u64);
        set(&mut unshed, "honest.completed", requests as u64);
        assert!(
            !load.gate_failures(&unshed, None).is_empty(),
            "a flash crowd that never overran the cap proves nothing"
        );
        let mut toothless = committed_section("BENCH_LOAD.json", "e14_load");
        set(&mut toothless, "detection_under_overload.attacks", 0u64);
        set(&mut toothless, "detection_under_overload.detected", 0u64);
        assert!(
            !load.gate_failures(&toothless, None).is_empty(),
            "a campaign that never fired proves nothing"
        );
    }

    #[test]
    fn recovery_matrix_covers_all_three_services() {
        use drams_core::scenario::{CrashTarget, ScriptedAction};
        let matrix = scenarios::recovery_matrix(true);
        assert!(matrix.len() >= 3);
        let mut targets = Vec::new();
        for spec in &matrix {
            for action in &spec.script {
                if let ScriptedAction::CrashRestart { target, .. } = action {
                    targets.push(*target);
                }
            }
            // Twins strip the crash and nothing else.
            let twin = scenarios::strip_crashes(spec);
            assert!(twin
                .script
                .iter()
                .all(|a| !matches!(a, ScriptedAction::CrashRestart { .. })));
            assert_eq!(twin.config.total_requests, spec.config.total_requests);
        }
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::ChainNode)));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Li(_))));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Analyser)));
        assert!(targets.iter().any(|t| matches!(t, CrashTarget::Pdp(_))));
        assert!(scenarios::by_name("crash_chain", true).is_some());
        assert!(scenarios::by_name("crash_pdp", true).is_some());
    }

    #[test]
    fn fault_matrix_covers_the_taxonomy() {
        use drams_core::scenario::ScriptedAction;
        let matrix = scenarios::fault_matrix(true);
        let names: std::collections::HashSet<&str> =
            matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), matrix.len(), "duplicate scenario names");
        // Loss, duplication/reordering, a partition, and a PDP outage
        // must all be represented.
        assert!(matrix
            .iter()
            .any(|s| s.faults.links.iter().any(|l| l.drop_permille > 0)));
        assert!(matrix.iter().any(|s| s
            .faults
            .links
            .iter()
            .any(|l| l.duplicate_permille > 0 && l.reorder_permille > 0)));
        assert!(matrix.iter().any(|s| !s.faults.partitions.is_empty()));
        assert!(matrix.iter().any(|s| s
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::SilencePdp { .. }))));
        assert!(scenarios::by_name("lossy_links", true).is_some());
        assert!(!scenarios::lossy_plan().is_empty());
    }

    #[test]
    fn scenario_matrix_names_are_unique_and_lookup_works() {
        let matrix = scenarios::matrix(true);
        assert!(matrix.len() >= 4, "the E10 matrix needs >= 4 scenarios");
        let names: std::collections::HashSet<&str> =
            matrix.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), matrix.len(), "duplicate scenario names");
        // One scenario exercises mid-run policy churn, one a per-cloud
        // PDP topology (the E10 acceptance shape).
        assert!(matrix.iter().any(|s| s.script.iter().any(|a| matches!(
            a,
            drams_core::scenario::ScriptedAction::PublishPolicy { .. }
        ))));
        assert!(matrix
            .iter()
            .any(|s| s.placement == drams_core::scenario::PdpPlacement::PerCloud));
        assert!(scenarios::by_name("degraded_li", true).is_some());
        assert!(scenarios::by_name("nope", true).is_none());
    }

    #[test]
    fn load_matrix_specs_arm_every_bounded_state_mechanism() {
        use drams_core::scenario::ScriptedAction;
        let honest = scenarios::flash_crowd(true);
        assert!(honest.config.total_requests >= 100_000, "E14 floor");
        assert!(!honest.load.is_empty());
        assert!(honest.load.population > 0);
        assert!(honest.load.pep_inflight_cap > 0);
        assert!(honest.load.li_resident_cap > 0);
        assert!(honest.load.idempotency_retention > 0);
        assert!(honest.load.analyser_retire_lag > 0);
        assert!(honest.load.chain_compact_interval > 0);
        assert!(!honest.load.diurnal.is_empty());
        assert!(!honest.load.spikes.is_empty());
        // The clamp is the identity on the committed specs: what E14
        // declares is what runs.
        assert_eq!(honest.load.clamped(), honest.load);
        let crash = scenarios::overload_crash(true);
        assert!(crash
            .script
            .iter()
            .any(|a| matches!(a, ScriptedAction::CrashRestart { .. })));
        assert_eq!(crash.load.clamped(), crash.load);
    }
}

//! `perfbench` — one repetition of a DRAMS benchmark workload.
//!
//! ```text
//! perfbench --workload <flash_crowd|figure1_attack|tcp_steady> --seed <n>
//!           --mode <run|trace> [--conformance]
//! ```
//!
//! `run` sets the workload up [`SETUPS`] times, runs the real `run_scenario`
//! (or `run_scenario_with_transport`) once untraced, checks the outcome
//! and reports this process's wall time, its wall time per slice of
//! virtual time, set-up samples, peak RSS and the run's virtual
//! latencies. `--conformance` additionally checks that a TCP run is
//! byte-identical to the DES run of the same spec.
//! `trace` runs once untraced, then the traced run, and reports the
//! per-layer metrics. `run.py` drives this binary, one fresh process per
//! repetition, and aggregates; the last line of standard output is one
//! JSON object. See `README.md`.

mod replay;
mod slices;
mod trace;
mod workloads;

use drams_attack::{detected_by_any_alert, CompositeAdversary};
use drams_core::monitor::{GroundTruth, MonitorReport};
use drams_core::scenario::{run_scenario, run_scenario_with_transport, ScenarioSpec};
use drams_core::PdpPlacement;
use drams_crypto::codec::Encode;
use drams_crypto::sha256::Digest;
use drams_faas::des::{LatencyStats, SimTime, SECONDS};
use drams_faas::msg::CorrelationId;
use drams_faas::transport::{Transport, WireFrame, WireRole};
use drams_net::TcpTransport;
use replay::{Deployment, Replay};
use slices::SliceClock;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::{growth, percentile, total, TimedTransport, Tracer};
use workloads::Workload;

/// Relative tolerance of the replay fidelity check.
const FIDELITY_TOLERANCE: f64 = 0.01;
/// Run-to-run wall-time noise allowed when layer busy time, measured in
/// the traced run, is compared with the wall time of the separate
/// untraced run. Identical repetitions differ by up to ±25% on a shared
/// 2-core host, so a strict comparison across two runs fails on noise
/// alone; within the run that recorded the spans the check is strict.
const WALL_NOISE: f64 = 0.25;
/// Set-ups timed per repetition: set-up is cheap next to a run, and
/// several samples per process steady its median (the first set-up in a
/// fresh process is the slowest).
const SETUPS: usize = 5;
/// Slices the untraced run's nominal virtual duration (requests ÷ base
/// rate) is cut into; see `slices.rs`.
const SLICES: u64 = 200;
/// Where the traced run writes its spans (relative to the checkout).
const TRACE_DIR: &str = "perfbench/out";

const USAGE: &str = "usage: perfbench --workload <flash_crowd|figure1_attack|tcp_steady> \
                     --seed <n> --mode <run|trace> [--conformance]";

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    conformance: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(at) => argv
                .get(at + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{flag} needs a value")),
        }
    };
    let required = |flag: &str| value(flag)?.ok_or_else(|| format!("missing {flag}"));
    let workload = required("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = required("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let trace = match required("--mode")? {
        "run" => false,
        "trace" => true,
        other => return Err(format!("--mode must be run or trace, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        trace,
        conformance: argv.iter().any(|a| a == "--conformance"),
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A correctness failure and the requests it spoiled.
struct Failure {
    reason: String,
    failed: u64,
}

impl From<String> for Failure {
    fn from(reason: String) -> Self {
        Failure { reason, failed: 0 }
    }
}

/// What one process reports to `run.py`.
struct Output {
    issued: u64,
    completed: u64,
    fingerprint: String,
    wall_s: f64,
    slices_s: Vec<f64>,
    setup_s: Vec<f64>,
    metrics: Vec<Metric>,
}

fn json_number(x: f64) -> String {
    // `+ 0.0` turns a negative zero into a plain one.
    format!("{:?}", if x.is_finite() { x + 0.0 } else { 0.0 })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// One untraced run of the workload.
struct Run {
    wall_s: f64,
    slices_s: Vec<f64>,
    report: MonitorReport,
    truth: GroundTruth,
}

/// The set-up of one run: everything before the first request.
struct SetUp {
    spec: ScenarioSpec,
    adversary: CompositeAdversary,
    transport: Option<TcpTransport>,
    seconds: f64,
}

/// Builds the spec, compiles the policy and constructs the deployment
/// (probes, LIs, chain node with genesis, Analyser with checkpoint) from
/// the constructors `run_scenario` uses; for `tcp_steady` also
/// provisions every role's endpoint with one warm-up round trip each,
/// so first-contact cost lands here and not in the timed run.
fn set_up(workload: Workload, seed: u64) -> SetUp {
    let start = Instant::now();
    let spec = workload.spec(seed);
    drop(Deployment::new(&spec, &mut workload.adversary(seed)));
    let transport = workload.over_tcp().then(|| {
        let mut transport = TcpTransport::loopback();
        for role in wire_roles(&spec) {
            // Sequence 0 stays below the run's first frame (sequence 1),
            // so the warmed connection is reused rather than refused.
            let ping = WireFrame::ping(role, 0);
            transport.roundtrip(ping).expect("warm-up round trip");
        }
        transport
    });
    let seconds = start.elapsed().as_secs_f64();
    SetUp {
        adversary: workload.adversary(seed),
        spec,
        transport,
        seconds,
    }
}

/// Every wire role a run of `spec` sends frames to.
fn wire_roles(spec: &ScenarioSpec) -> Vec<WireRole> {
    let tenants = &spec.config.federation.tenants;
    let slots = match spec.placement {
        PdpPlacement::Central => 1,
        PdpPlacement::PerCloud => tenants
            .iter()
            .map(|t| t.cloud.0)
            .collect::<HashSet<_>>()
            .len() as u32,
    };
    std::iter::once(WireRole::Pep)
        .chain((0..slots).map(|slot| WireRole::Pdp { slot }))
        .chain((0..=tenants.len().max(1) as u32).map(|index| WireRole::Li { index }))
        .collect()
}

/// Virtual time per slice of a run of `spec`.
fn slice(spec: &ScenarioSpec) -> SimTime {
    let nominal_s = spec.config.total_requests as f64 / spec.config.request_rate_per_sec;
    (nominal_s * SECONDS as f64 / SLICES as f64) as SimTime
}

/// Runs a prepared set-up once, untraced.
fn run(set_up: SetUp) -> Run {
    let SetUp {
        spec,
        adversary,
        transport,
        ..
    } = set_up;
    let mut adversary = SliceClock::new(adversary, slice(&spec));
    let start = Instant::now();
    let ((report, truth), transport) = match transport {
        Some(mut transport) => (
            run_scenario_with_transport(&spec, &mut adversary, &mut transport),
            Some(transport),
        ),
        None => (run_scenario(&spec, &mut adversary), None),
    };
    let end = Instant::now();
    // Endpoint threads are joined here, outside the timed run.
    drop(transport);
    Run {
        wall_s: end.duration_since(start).as_secs_f64(),
        slices_s: adversary.slices_s(start, end),
        report,
        truth,
    }
}

/// The deterministic fingerprint of a run: alert bytes, ground truth,
/// counters and the latency percentiles. Equal fingerprints mean
/// byte-identical observable outcomes.
fn fingerprint(report: &MonitorReport, truth: &GroundTruth) -> String {
    let alerts: Vec<Vec<u8>> = report
        .alerts
        .iter()
        .map(Encode::to_canonical_bytes)
        .collect();
    let latencies = [
        &report.e2e_latency,
        &report.log_commit_latency,
        &report.detection_latency,
    ]
    .map(|l| (l.len(), l.percentile(50.0), l.percentile(99.0)));
    let text = format!(
        "{alerts:?}|{truth:?}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{}|{:?}|{latencies:?}",
        report.requests_issued,
        report.requests_completed,
        report.requests_dropped,
        report.requests_shed,
        report.blocks_mined,
        report.txs_committed,
        report.entries_logged,
        report.groups_completed,
        report.journal_compactions,
        report.groups_retired,
        report.finished_at,
        report.peak,
    );
    Digest::of(text.as_bytes()).to_hex()
}

/// Every correlation the adversary touched.
fn attacked(truth: &GroundTruth) -> HashSet<CorrelationId> {
    let logs = truth
        .dropped_logs
        .iter()
        .chain(&truth.tampered_logs)
        .chain(&truth.replayed_logs)
        .chain(&truth.withheld_logs)
        .map(|(c, _)| *c);
    truth
        .tampered_requests
        .iter()
        .chain(&truth.tampered_responses)
        .chain(&truth.corrupted_decisions)
        .chain(&truth.flipped_enforcements)
        .copied()
        .chain(logs)
        .collect()
}

/// The workload's correctness check on one run. A request fails if it
/// was dropped, attacked but undetected, or falsely alerted. Requests
/// shed at the admission cap are the overload design's specified
/// outcome: they are accounted for, not failed.
fn check(workload: Workload, run: &Run) -> Result<(), Failure> {
    let r = &run.report;
    let expected = workload.requests();
    if r.requests_issued != expected {
        return Err(format!("issued {} requests, expected {expected}", r.requests_issued).into());
    }
    if r.requests_completed + r.requests_shed + r.requests_dropped != r.requests_issued {
        return Err(format!(
            "completed {} + shed {} + dropped {} != issued {}",
            r.requests_completed, r.requests_shed, r.requests_dropped, r.requests_issued
        )
        .into());
    }
    if workload == Workload::FlashCrowd && r.requests_shed == 0 {
        return Err(String::from("the flash crowd never reached the admission cap").into());
    }
    let (undetected, false_alarms) = if workload.attacked() {
        let attacked = attacked(&run.truth);
        if attacked.is_empty() {
            return Err(String::from("the adversary never fired").into());
        }
        let list: Vec<CorrelationId> = attacked.iter().copied().collect();
        let detected = detected_by_any_alert(r, &list);
        let false_alarms: HashSet<CorrelationId> = r
            .alerts
            .iter()
            .map(|a| a.correlation)
            .filter(|c| !attacked.contains(c))
            .collect();
        (
            (attacked.len() - detected) as u64,
            false_alarms.len() as u64,
        )
    } else {
        let alerted: HashSet<CorrelationId> = r.alerts.iter().map(|a| a.correlation).collect();
        (0, alerted.len() as u64)
    };
    let failed = r.requests_dropped + undetected + false_alarms;
    if failed > 0 {
        return Err(Failure {
            reason: format!(
                "{} dropped, {undetected} attacked but undetected, {false_alarms} falsely alerted",
                r.requests_dropped
            ),
            failed,
        });
    }
    Ok(())
}

/// Invariant 9: the TCP run's alert bytes, ground truth and counters are
/// byte-identical to a DES run of the same spec.
fn check_conformance(workload: Workload, seed: u64, tcp: &Run) -> Result<(), Failure> {
    let spec = workload.spec(seed);
    let (des, des_truth) = run_scenario(&spec, &mut workload.adversary(seed));
    if fingerprint(&des, &des_truth) != fingerprint(&tcp.report, &tcp.truth) {
        return Err(String::from("the TCP run diverged from the DES run of the same spec").into());
    }
    Ok(())
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms(t: SimTime) -> f64 {
    t as f64 / 1_000.0
}

fn print_context(args: &Args, report: &MonitorReport) {
    println!(
        "context workload={} seed={} requests={} host_cores={} DRAMS_WORKERS={}",
        args.workload.name(),
        args.seed,
        report.requests_issued,
        std::thread::available_parallelism().map_or(0, usize::from),
        std::env::var("DRAMS_WORKERS").unwrap_or_else(|_| "unset".into()),
    );
    println!(
        "outcome issued={} completed={} shed={} dropped={} alerts={}",
        report.requests_issued,
        report.requests_completed,
        report.requests_shed,
        report.requests_dropped,
        report.alerts.len(),
    );
}

/// A latency series as (p50, p99, samples) metrics.
fn latency(names: [&'static str; 3], stats: &LatencyStats) -> impl Iterator<Item = Metric> {
    [
        metric(names[0], ms(stats.percentile(50.0)), "ms"),
        metric(names[1], ms(stats.percentile(99.0)), "ms"),
        metric(names[2], stats.len() as f64, "count"),
    ]
    .into_iter()
}

/// `--mode run`: [`SETUPS`] set-ups, one untraced run, its checks and
/// numbers.
fn untraced(args: &Args) -> Result<Output, Failure> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        let s = set_up(args.workload, args.seed);
        setup_s.push(s.seconds);
        // Only the last set-up is kept; dropping the others (and their
        // endpoint threads) stays outside every clock.
        prepared = Some(s);
    }
    let run = run(prepared.expect("at least one set-up"));
    let report = &run.report;
    print_context(args, report);
    check(args.workload, &run)?;
    if args.conformance && args.workload.over_tcp() {
        check_conformance(args.workload, args.seed, &run)?;
    }
    let mut metrics = vec![
        metric(
            "sim_rps",
            report.requests_completed as f64 / run.wall_s,
            "req/s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    metrics.extend(latency(
        ["e2e_p50_ms", "e2e_p99_ms", "e2e_samples"],
        &report.e2e_latency,
    ));
    metrics.extend(latency(
        ["commit_p50_ms", "commit_p99_ms", "commit_samples"],
        &report.log_commit_latency,
    ));
    metrics.extend(latency(
        ["detect_p50_ms", "detect_p99_ms", "detect_samples"],
        &report.detection_latency,
    ));
    Ok(Output {
        issued: report.requests_issued,
        completed: report.requests_completed,
        fingerprint: fingerprint(report, &run.truth),
        wall_s: run.wall_s,
        slices_s: run.slices_s,
        setup_s,
        metrics,
    })
}

/// The traced run of `tcp_steady`: the real run with every round trip
/// timed per wire role.
struct NetTrace {
    tracer: Tracer,
    fingerprint: String,
    wall_s: f64,
    frames: u64,
    bytes: u64,
    connects: u64,
}

fn traced_tcp(workload: Workload, seed: u64) -> NetTrace {
    let SetUp {
        spec,
        mut adversary,
        transport,
        ..
    } = set_up(workload, seed);
    let mut timed = TimedTransport {
        inner: transport.expect("a TCP workload"),
        tracer: Tracer::default(),
    };
    let start = Instant::now();
    let (report, truth) = run_scenario_with_transport(&spec, &mut adversary, &mut timed);
    let wall_s = start.elapsed().as_secs_f64();
    let stats = timed.inner.stats();
    NetTrace {
        tracer: timed.tracer,
        fingerprint: fingerprint(&report, &truth),
        wall_s,
        frames: stats.frames,
        bytes: stats.bytes_sent,
        connects: stats.connects,
    }
}

/// Checks that the replay did what the untraced run did.
fn check_fidelity(replay: &Replay, report: &MonitorReport) -> Result<(), String> {
    let c = &replay.counts;
    let pairs = [
        ("chain.blocks", c.blocks, report.blocks_mined),
        ("chain.txs", c.txs, report.txs_committed),
        ("li.entries", c.li_entries, report.entries_logged),
        (
            "analyser.groups_checked",
            c.groups_checked,
            report.groups_completed,
        ),
        (
            "store.compactions",
            c.compactions,
            report.journal_compactions,
        ),
    ];
    for (name, traced, untraced) in pairs {
        let gap = traced.abs_diff(untraced) as f64;
        if gap > FIDELITY_TOLERANCE * traced.max(untraced) as f64 {
            return Err(format!(
                "replay fidelity: {name} traced {traced} vs untraced {untraced} \
                 (tolerance {:.0}%)",
                FIDELITY_TOLERANCE * 100.0
            ));
        }
    }
    Ok(())
}

/// `--mode trace`: one untraced run, then the traced run; per-layer
/// metrics.
fn traced(args: &Args) -> Result<Output, Failure> {
    let run = run(set_up(args.workload, args.seed));
    let report = &run.report;
    print_context(args, report);
    check(args.workload, &run)?;

    let spec = args.workload.spec(args.seed);
    let replay = replay::replay(
        &spec,
        &mut args.workload.adversary(args.seed),
        report.finished_at,
    );
    check_fidelity(&replay, report)?;
    let net = args
        .workload
        .over_tcp()
        .then(|| traced_tcp(args.workload, args.seed));
    let untraced_fingerprint = fingerprint(report, &run.truth);
    if net
        .as_ref()
        .is_some_and(|n| n.fingerprint != untraced_fingerprint)
    {
        return Err(String::from("timing the round trips changed the run's outcome").into());
    }

    let t = &replay.tracer;
    let compact = t.durations("store.compact");
    let mine = t.durations("chain.mine");
    let poll = t.durations("analyser.poll");
    let checkpoint = t.durations("analyser.checkpoint");
    let li = [t.durations("li.store"), t.durations("li.flush")].concat();
    let probe = t.durations("probe.observe");
    let policy = t.durations("policy.evaluate");
    let rtt = net
        .as_ref()
        .map(|n| n.tracer.durations("net.roundtrip"))
        .unwrap_or_default();
    let layers = [
        ("store", total(&compact)),
        ("chain", total(&mine)),
        ("analyser", total(&poll) + total(&checkpoint)),
        ("li", total(&li)),
        ("probe", total(&probe)),
        ("policy", total(&policy)),
        ("net", total(&rtt)),
    ];
    let busy: f64 = layers.iter().map(|(_, s)| s).sum();
    let residual = run.wall_s - busy;
    let traced_wall_s = net.as_ref().map_or(replay.wall_s, |n| n.wall_s);
    println!(
        "walls untraced={:.3}s traced={traced_wall_s:.3}s ({})",
        run.wall_s,
        if net.is_some() {
            "the real run with timed round trips; the difference is the tracing overhead"
        } else {
            "the replay"
        }
    );
    for (layer, seconds) in layers {
        println!(
            "layer {layer:<9} busy {seconds:>8.3} s {:>6.1}% of the untraced wall",
            100.0 * seconds / run.wall_s
        );
    }
    println!(
        "layer runtime   residual {residual:>4.3} s {:>6.1}%",
        100.0 * residual / run.wall_s
    );
    if let Some(n) = &net {
        print_roles(&n.tracer);
    }
    let replay_busy = busy - total(&rtt);
    let within = |what: &str, busy: f64, wall: f64, slack: f64| {
        if busy > wall * (1.0 + slack) {
            Err(format!(
                "layer busy time {busy:.3} s exceeds the {what} wall time {wall:.3} s \
                 (allowance {:.0}%)",
                slack * 100.0
            ))
        } else {
            Ok(())
        }
    };
    within("replay", replay_busy, replay.wall_s, 0.0)?;
    if let Some(n) = &net {
        within("traced TCP run", total(&rtt), n.wall_s, 0.0)?;
    }
    within("untraced", busy, run.wall_s, WALL_NOISE)?;
    write_spans(
        args.workload,
        &replay.tracer,
        net.as_ref().map(|n| &n.tracer),
    );

    let c = &replay.counts;
    let n = |x: u64| x as f64;
    let per = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (frames, bytes, connects) = net
        .as_ref()
        .map_or((0, 0, 0), |n| (n.frames, n.bytes, n.connects));
    let mut metrics = vec![
        metric("store.compactions", n(c.compactions), "count"),
        metric("store.compact_s", total(&compact), "s"),
        metric(
            "store.compact_ms_max",
            1e3 * percentile(&compact, 100.0),
            "ms",
        ),
        metric("store.compact_growth", growth(&compact), "ratio"),
        metric("chain.blocks", n(c.blocks), "count"),
        metric("chain.txs", n(c.txs), "count"),
        metric("chain.mine_s", total(&mine), "s"),
        metric("chain.mine_ms_p50", 1e3 * percentile(&mine, 50.0), "ms"),
        metric("chain.mine_growth", growth(&mine), "ratio"),
        metric("analyser.polls", n(poll.len() as u64), "count"),
        metric("analyser.groups_checked", n(c.groups_checked), "count"),
        metric("analyser.txs_audited", n(c.txs_audited), "count"),
        metric("analyser.alerts", n(c.alerts), "count"),
        metric("analyser.poll_s", total(&poll), "s"),
        metric("analyser.poll_ms_p50", 1e3 * percentile(&poll, 50.0), "ms"),
        metric("analyser.poll_growth", growth(&poll), "ratio"),
        metric("analyser.checkpoint_s", total(&checkpoint), "s"),
        metric("li.entries", n(c.li_entries), "count"),
        metric("li.txs", n(c.li_txs), "count"),
        metric(
            "li.entries_per_tx",
            per(n(c.li_entries), n(c.li_txs)),
            "ratio",
        ),
        metric("li.busy_s", total(&li), "s"),
        metric("probe.entries", n(probe.len() as u64), "count"),
        metric("probe.busy_s", total(&probe), "s"),
        metric("policy.evals", n(policy.len() as u64), "count"),
        metric("policy.busy_s", total(&policy), "s"),
        metric(
            "policy.us_per_eval",
            1e6 * per(total(&policy), n(policy.len() as u64)),
            "us",
        ),
        metric("net.frames", n(frames), "count"),
        metric("net.bytes", n(bytes), "bytes"),
        metric("net.connects", n(connects), "count"),
        metric("net.busy_s", total(&rtt), "s"),
        metric("net.rtt_p50_us", 1e6 * percentile(&rtt, 50.0), "us"),
        metric("net.rtt_p99_us", 1e6 * percentile(&rtt, 99.0), "us"),
        metric("runtime.residual_s", residual, "s"),
        metric("runtime.residual_share", residual / run.wall_s, "ratio"),
        metric("runtime.untraced_wall_s", run.wall_s, "s"),
        metric("runtime.traced_wall_s", traced_wall_s, "s"),
        metric("pep.shed", n(report.requests_shed), "count"),
        metric("pep.retries", n(report.retries_total), "count"),
        metric(
            "pdp.idempotency_evictions",
            n(report.idempotency_evictions),
            "count",
        ),
        metric("analyser.groups_retired", n(report.groups_retired), "count"),
        metric(
            "peak.pdp_idempotency",
            n(report.peak.pdp_idempotency),
            "count",
        ),
        metric(
            "peak.contract_storage",
            n(report.peak.contract_storage),
            "count",
        ),
        metric(
            "peak.chain_journal_records",
            n(report.peak.chain_journal_records),
            "count",
        ),
        metric(
            "peak.analyser_pending_retire",
            n(report.peak.analyser_pending_retire),
            "count",
        ),
    ];
    metrics.extend(latency(
        ["detect_p50_ms", "detect_p99_ms", "detect_samples"],
        &report.detection_latency,
    ));
    Ok(Output {
        issued: report.requests_issued,
        completed: report.requests_completed,
        fingerprint: untraced_fingerprint,
        wall_s: run.wall_s,
        slices_s: run.slices_s,
        setup_s: Vec::new(),
        metrics,
    })
}

/// Writes the traced run's spans; a write failure loses the file, not
/// the numbers.
fn write_spans(workload: Workload, replay: &Tracer, net: Option<&Tracer>) {
    let dir = Path::new(TRACE_DIR);
    let name = workload.name();
    let written = replay
        .write_tsv(&dir.join(format!("{name}.spans.tsv")))
        .and_then(|()| match net {
            Some(net) => net.write_tsv(&dir.join(format!("{name}.net.spans.tsv"))),
            None => Ok(()),
        });
    if let Err(e) = written {
        eprintln!("perfbench: spans not written: {e}");
    }
}

/// Prints round trips and busy time per wire role.
fn print_roles(tracer: &Tracer) {
    let mut per_role: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for span in tracer.spans() {
        let (count, ns) = per_role.entry(span.key).or_default();
        *count += 1;
        *ns += span.dur_ns;
    }
    for (key, (count, ns)) in per_role {
        let role = WireRole::from_wire((key >> 32) as u8, key as u32)
            .map_or_else(|_| format!("{key:#x}"), |role| role.to_string());
        println!(
            "net role {role:<8} frames {count:>7} busy {:>8.3} s",
            ns as f64 * 1e-9
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(out) => {
            let list = |xs: &[f64]| -> String {
                let xs: Vec<String> = xs.iter().map(|x| json_number(*x)).collect();
                xs.join(", ")
            };
            println!(
                "{{\"correct\": true, \"issued\": {}, \"completed\": {}, \"failed\": 0, \
                 \"fingerprint\": \"{}\", \"wall_s\": {}, \"slices_s\": [{}], \
                 \"setup_s\": [{}], \"metrics\": {}}}",
                out.issued,
                out.completed,
                out.fingerprint,
                json_number(out.wall_s),
                list(&out.slices_s),
                list(&out.setup_s),
                json_metrics(&out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(failure) => {
            eprintln!(
                "perfbench: {} failed its check: {}",
                args.workload.name(),
                failure.reason
            );
            println!(
                "{{\"correct\": false, \"issued\": {}, \"failed\": {}, \"reason\": \"{}\"}}",
                args.workload.requests(),
                failure.failed,
                failure.reason.replace('"', "'")
            );
            ExitCode::FAILURE
        }
    }
}

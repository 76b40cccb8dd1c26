//! Regenerates every experiment table of the DRAMS reproduction
//! (EXPERIMENTS.md / DESIGN.md §3).
//!
//! Usage: `cargo run --release -p drams-bench --bin run_experiments [e1..e16|all] [--quick] [--scenario <name>]`
//!
//! Run with `--release`: E1/E2 perform real proof-of-work hashing.
//!
//! E5/E6 and E9–E16 also rewrite their committed `BENCH_*.json`
//! trajectory at the repo root ([`drams_bench::trajectory::FILES`]); a
//! section whose experiment did not run is carried over from the
//! committed file. Each file is written first, then its gates
//! ([`drams_bench::trajectory::GATES`]) are applied, so a regression is
//! recorded in the diff before the non-zero exit fails the run.
//! `--scenario <name>` restricts E10 to one scenario and leaves
//! `BENCH_E2E.json` untouched. `--quick` shrinks the sweeps to CI-smoke
//! size — each section records which mode produced it. An unknown
//! selector or flag prints the valid set and exits 2.

use drams_attack::{score, FaultWindow, ScriptedAdversary, ThreatKind, WindowedAdversary};
use drams_bench::log_entry_of_size;
use drams_bench::scenarios;
use drams_bench::trajectory::{ratio, section, Object, FILES};
use drams_chain::block::Block;
use drams_chain::chain::ChainConfig;
use drams_chain::fork::{integrity_sweep, nakamoto_success_probability};
use drams_chain::net::{simulate, NetConfig};
use drams_chain::node::Node;
use drams_core::adversary::NoAdversary;
use drams_core::contract::{MonitorContract, MONITOR_CONTRACT};
use drams_core::monitor::{run_monitor, GroundTruth, MonitorConfig, MonitorReport};
use drams_crypto::codec::Encode;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{MILLIS, SECONDS};
use drams_faas::model::FederationSpec;
use drams_faas::workload::{PolicyGenerator, PolicyShape, RequestGenerator, Vocabulary};
use drams_policy::pdp::Pdp;
use std::time::Instant;

/// The sections an experiment contributes to the committed trajectories.
type Sections = Vec<(&'static str, Object)>;

/// Runs one experiment.
type Run = fn(&Args) -> Sections;

/// Every experiment in run order, with the sections it produces.
#[rustfmt::skip]
const EXPERIMENTS: [(&str, Run); 16] = [
    ("e1", |_| { e1_log_size_vs_latency(); Vec::new() }),
    ("e2", |_| { e2_pow_tuning_and_integrity(); Vec::new() }),
    ("e3", |_| { e3_hybrid_store(); Vec::new() }),
    ("e4", |_| { e4_detection_matrix(); Vec::new() }),
    ("e5", |a| vec![("e5_pdp_scaling", e5_policy_engine_scaling(a.quick))]),
    ("e6", |a| vec![("e6_monitoring_overhead", e6_monitoring_overhead(a.quick))]),
    ("e7", |_| { e7_federation_scalability(); Vec::new() }),
    ("e8", |_| { e8_ablations(); Vec::new() }),
    ("e9", |a| vec![("e9_crypto", e9_crypto_substrate(a.quick))]),
    ("e10", |a| {
        let rows = e10_scenario_matrix(a.quick, a.scenario.as_deref());
        if a.scenario.is_some() {
            // A filtered run prints its table but does not rewrite the
            // committed file with a partial matrix.
            println!("\n(--scenario filter active: BENCH_E2E.json left untouched)");
            return Vec::new();
        }
        vec![("e10_scenarios", rows)]
    }),
    ("e11", |a| {
        let (engine, recovery) = e11_storage_and_recovery(a.quick);
        vec![("e11_store_engine", engine), ("e11_recovery", recovery)]
    }),
    ("e12", |a| vec![("e12_fuzz", e12_adversarial_fuzz(a.quick))]),
    ("e13", |a| vec![("e13_faults", e13_fault_plane(a.quick))]),
    ("e14", |a| vec![("e14_load", e14_overload(a.quick))]),
    ("e15", |a| vec![("e15_parallel", e15_parallel(a.quick))]),
    ("e16", |a| vec![("e16_net", e16_net(a.quick))]),
];

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Selected experiments; empty means all.
    selected: Vec<String>,
    quick: bool,
    scenario: Option<String>,
}

impl Args {
    fn wants(&self, experiment: &str) -> bool {
        self.selected.is_empty() || self.selected.iter().any(|s| s == experiment)
    }
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut all = false;
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--scenario" => {
                let name = args.next().ok_or("--scenario needs a scenario name")?;
                parsed.scenario = Some(name.clone());
            }
            "all" => all = true,
            e if EXPERIMENTS.iter().any(|(name, _)| *name == e) => {
                parsed.selected.push(e.to_string());
            }
            other => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown argument {other:?}; experiments are {}, all; flags are --quick, --scenario <name>",
                    names.join(", ")
                ));
            }
        }
    }
    if all {
        parsed.selected.clear();
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\nusage: run_experiments [e1..e16|all]... [--quick] [--scenario <name>]");
        std::process::exit(2);
    });

    println!("DRAMS experiment suite — reproduction of Ferdous et al., ICDCS 2017");
    println!("(derived from the paper's §III claims; see EXPERIMENTS.md)\n");

    let mut fresh: Vec<(String, Object)> = Vec::new();
    for (name, run) in EXPERIMENTS {
        if args.wants(name) {
            for (name, fields) in run(&args) {
                fresh.push((name.to_string(), section(args.quick, fields)));
            }
        }
    }

    println!();
    for file in &FILES {
        let ran: Vec<(String, Object)> = fresh
            .iter()
            .filter(|(name, _)| file.sections.contains(&name.as_str()))
            .cloned()
            .collect();
        if ran.is_empty() {
            continue;
        }
        let path = file.path();
        let previous = file.committed().unwrap_or_else(|e| {
            eprintln!("ignoring unreadable {}: {e}", path.display());
            None
        });
        let text = file.assemble(&ran, previous.as_ref()).render();
        if let Err(e) = std::fs::write(&path, text) {
            // Exit non-zero so a CI smoke step cannot pass against a
            // stale committed file.
            eprintln!("\nfailed to write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("wrote {}", path.display());
        let failures = file.gate_failures(&ran, previous.as_ref());
        if !failures.is_empty() {
            eprintln!("\n{} failed its gates:", file.file);
            for failure in &failures {
                eprintln!("  {failure}");
            }
            std::process::exit(1);
        }
    }
    println!("\ndone.");
}

/// Whether a crashed run is byte-identical to its uninterrupted twin:
/// alerts, ground truth and counters.
fn twin_matches(
    (clean, clean_truth): (&MonitorReport, &GroundTruth),
    (crashed, crashed_truth): (&MonitorReport, &GroundTruth),
) -> bool {
    let alerts = |r: &MonitorReport| -> Vec<Vec<u8>> {
        r.alerts.iter().map(Encode::to_canonical_bytes).collect()
    };
    clean_truth == crashed_truth
        && alerts(clean) == alerts(crashed)
        && clean.requests_completed == crashed.requests_completed
        && clean.entries_logged == crashed.entries_logged
        && clean.groups_completed == crashed.groups_completed
        && clean.txs_committed == crashed.txs_committed
        && clean.finished_at == crashed.finished_at
}

fn header(id: &str, claim: &str) {
    println!("\n==================================================================");
    println!("{id}: {claim}");
    println!("==================================================================");
}

/// E1 — paper §III: "the bigger the \[log\] size is, the higher is the
/// latency to store the log on the blockchain."
///
/// Storage latency decomposes additively: PoW mines over the fixed-size
/// header (difficulty-dependent, size-independent), while encoding,
/// signature verification, Merkle rooting and contract execution are
/// size-dependent. The table reports both components and their sum.
fn e1_log_size_vs_latency() {
    header(
        "E1",
        "log size vs on-chain storage latency (real PoW, wall clock)",
    );

    // Component 1: size-dependent processing cost at difficulty 0.
    let mut processing_us = Vec::new();
    for &payload in &[64usize, 512, 4096, 16384] {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            max_block_txs: 64,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        let li = Keypair::from_seed(b"e1-li");
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(10_000, li.public().fingerprint()),
        )
        .expect("init");
        node.mine_block(0).expect("mine init");
        let total_entries = 256usize;
        let payloads: Vec<Vec<u8>> = (0..total_entries)
            .map(|i| log_entry_of_size(i as u64, payload).to_canonical_bytes())
            .collect();
        let start = Instant::now();
        for bytes in payloads {
            node.submit_call(&li, MONITOR_CONTRACT, "store_log", bytes)
                .expect("submit");
        }
        let mut ts = 1u64;
        while node.mempool_len() > 0 {
            node.mine_block(ts).expect("mine");
            ts += 1;
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / total_entries as f64;
        processing_us.push((payload, us));
    }

    // Component 2: difficulty-dependent mining cost (16 blocks per bits).
    let mut mining_ms = Vec::new();
    for &bits in &[8u32, 12, 16] {
        let blocks = 16u64;
        let mut parent = drams_crypto::sha256::Digest::of(&bits.to_be_bytes());
        let start = Instant::now();
        for h in 0..blocks {
            let block = Block::mine(parent, h, vec![], h, bits);
            parent = block.hash();
        }
        mining_ms.push((
            bits,
            start.elapsed().as_secs_f64() * 1_000.0 / blocks as f64,
        ));
    }

    println!(
        "{:>10} {:>16} | per-entry total at 8 entries/block:",
        "entry B", "processing µs"
    );
    print!("{:>27} |", "");
    for (bits, _) in &mining_ms {
        print!(" {:>9}", format!("{bits} bits"));
    }
    println!(" (ms/entry)");
    for (payload, us) in &processing_us {
        print!("{:>10} {:>16.1} |", payload, us);
        for (_, mine_ms) in &mining_ms {
            let total_ms = us / 1_000.0 + mine_ms / 8.0;
            print!(" {:>9.3}", total_ms);
        }
        println!();
    }
    println!("\nshape: per-entry cost grows with entry size (encode+verify+execute)");
    println!("and with PoW difficulty (mining amortised over the block) — §III.");
}

/// E2 — paper §III: PoW parameters tune latency, but "a possibly
/// lightweight PoW … does not ensure strong integrity guarantees."
fn e2_pow_tuning_and_integrity() {
    header(
        "E2",
        "PoW difficulty vs block time; attacker rewrite probability",
    );
    println!("-- block time vs difficulty (real hashing, 6 blocks each) --");
    println!(
        "{:>8} {:>16} {:>18}",
        "bits", "mean ms/block", "expected hashes"
    );
    for &bits in &[4u32, 8, 12, 16, 18] {
        let start = Instant::now();
        let blocks = 6u64;
        let mut parent = drams_crypto::sha256::Digest::ZERO;
        for h in 0..blocks {
            let block = Block::mine(parent, h, vec![], h, bits);
            parent = block.hash();
        }
        let mean = start.elapsed().as_secs_f64() * 1_000.0 / blocks as f64;
        println!("{:>8} {:>16.3} {:>18}", bits, mean, 1u64 << bits);
    }

    println!("\n-- integrity: P[rewrite log entry] (Nakamoto analytic / Monte Carlo) --");
    println!(
        "{:>8} {:>6} {:>14} {:>14}",
        "q", "conf", "analytic", "simulated"
    );
    for point in integrity_sweep(&[0.1, 0.25, 0.4], &[1, 3, 6, 12], 20_000, 42) {
        println!(
            "{:>8.2} {:>6} {:>14.6} {:>14.6}",
            point.attacker_share,
            point.confirmations,
            point.rewrite_probability,
            point.simulated_probability
        );
    }

    println!("\n-- small-network gossip: latency vs stale rate (virtual time) --");
    println!(
        "{:>12} {:>12} {:>10} {:>8}",
        "latency ms", "blocks", "stale %", "reorgs"
    );
    for &latency in &[10u64, 100, 400] {
        let stats = simulate(&NetConfig {
            hashrates: vec![1.0; 4],
            mean_block_interval_ms: 500.0,
            link_latency_ms: latency as f64,
            horizon_ms: 150_000,
            seed: 7,
        });
        println!(
            "{:>12} {:>12} {:>10.2} {:>8}",
            latency,
            stats.blocks_mined,
            stats.stale_rate() * 100.0,
            stats.reorgs
        );
    }
    println!("\nshape: block time doubles per difficulty bit; rewrite probability");
    println!("falls with confirmations and rises sharply with attacker share;");
    println!(
        "majority attacker (q ≥ 0.5) always wins: {}",
        nakamoto_success_probability(0.5, 100)
    );
}

/// E3 — paper §III: the hybrid DB+blockchain trade-off (ref \[9\]).
fn e3_hybrid_store() {
    header(
        "E3",
        "hybrid DB+chain: write cost vs tamper-exposure window",
    );
    use drams_store::{AnchorContract, AnchoredStore};
    let entries = 4096u64;
    println!(
        "{:>14} {:>10} {:>12} {:>16} {:>16}",
        "mode", "period", "chain txs", "µs/write", "max window"
    );

    // Pure on-chain baseline: every entry is its own transaction.
    {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            max_block_txs: 4096,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        let li = Keypair::from_seed(b"e3-li");
        node.submit_call(
            &li,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(10_000, li.public().fingerprint()),
        )
        .expect("init");
        let start = Instant::now();
        for i in 0..entries {
            let entry = log_entry_of_size(i, 128);
            node.submit_call(
                &li,
                MONITOR_CONTRACT,
                "store_log",
                entry.to_canonical_bytes(),
            )
            .expect("submit");
        }
        while node.mempool_len() > 0 {
            node.mine_block(0).expect("mine");
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / entries as f64;
        println!(
            "{:>14} {:>10} {:>12} {:>16.1} {:>16}",
            "pure-chain", "-", entries, us, 0
        );
    }

    for &period in &[8usize, 64, 256] {
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(AnchorContract));
        let mut store = AnchoredStore::new(period, Keypair::from_seed(b"e3-store"));
        let start = Instant::now();
        let mut max_window = 0usize;
        for i in 0..entries {
            store
                .append(format!("log-{i}").into_bytes(), &mut node)
                .expect("append");
            max_window = max_window.max(store.log().unsealed_len() + 1);
        }
        node.mine_block(0).expect("mine");
        let us = start.elapsed().as_secs_f64() * 1e6 / entries as f64;
        println!(
            "{:>14} {:>10} {:>12} {:>16.1} {:>16}",
            "hybrid",
            period,
            store.anchors_submitted(),
            us,
            max_window
        );
    }
    println!("\nshape: hybrid writes are orders of magnitude cheaper and chain");
    println!("traffic drops by the anchor period — at the cost of a tamper");
    println!("window of up to `period` unanchored entries (paper's trade-off).");
}

/// E4 — paper §I: DRAMS detects attacks on components *and* on the
/// monitoring plane itself.
fn e4_detection_matrix() {
    header("E4", "attack detection matrix (virtual-time federation)");
    println!(
        "{:<18} {:>8} {:>9} {:>7} {:>5} {:>13} {:>12}",
        "threat", "attacks", "detected", "rate", "fp", "mean lat ms", "p95 lat ms"
    );
    for threat in ThreatKind::ALL {
        let config = MonitorConfig {
            total_requests: 400,
            request_rate_per_sec: 100.0,
            group_timeout: 2 * SECONDS,
            seed: 11,
            ..MonitorConfig::default()
        };
        let mut adversary = ScriptedAdversary::new(threat, 0.1, 99);
        let (report, truth) = run_monitor(&config, &mut adversary);
        let s = score(threat, &report, &truth);
        println!(
            "{:<18} {:>8} {:>9} {:>6.1}% {:>5} {:>13.1} {:>12.1}",
            threat.to_string(),
            s.attacks,
            s.detected,
            s.rate() * 100.0,
            s.false_positives,
            s.mean_detection_latency_us / 1_000.0,
            s.p95_detection_latency_us as f64 / 1_000.0
        );
    }
    println!("\nshape: 100% detection, zero false positives; timeout-based");
    println!("detections (drop-log) are slower than digest comparisons.");
}

/// E5 — paper §II: the Analyser re-evaluates decisions against the formal
/// policy semantics; here we scale the policy base — tree-walking
/// interpreter vs the compiled engine (and its decision cache).
fn e5_policy_engine_scaling(quick: bool) -> Object {
    header("E5", "PDP evaluation & formal analysis vs policy size");
    println!(
        "{:>10} {:>8} {:>12} {:>12} {:>10} {:>12} {:>16}",
        "policies", "rules", "interp µs", "compiled µs", "speedup", "cached µs", "completeness ms"
    );
    let sizes: &[usize] = if quick {
        &[10, 100]
    } else {
        &[10, 50, 100, 500, 1000]
    };
    let request_count = if quick { 100 } else { 500 };
    let mut rows = Vec::new();
    for &policies in sizes {
        let shape = PolicyShape {
            policies,
            rules_per_policy: 5,
            ..PolicyShape::default()
        };
        let mut pgen = PolicyGenerator::new(Vocabulary::default(), 5);
        let set = pgen.next_policy_set(&shape);
        let rules = set.rule_count();
        // Cache off for the engine comparison; cache on measured after.
        let pdp = Pdp::with_cache_capacity(set.clone(), 0);
        let pdp_cached = Pdp::new(set.clone());
        let mut rgen = RequestGenerator::new(Vocabulary::default(), 1.0, 6);
        let requests: Vec<_> = (0..request_count).map(|_| rgen.next_request()).collect();

        let time_per_decision = |f: &dyn Fn(&drams_policy::attr::Request)| {
            let start = Instant::now();
            for r in &requests {
                f(r);
            }
            start.elapsed().as_secs_f64() * 1e6 / requests.len() as f64
        };
        // Interleave the engines over several rounds and keep each
        // engine's best round: min-of-rounds is robust against CPU
        // contention and frequency drift, which single-pass timing on a
        // shared machine is not.
        let rounds = if quick { 1 } else { 3 };
        let mut interpreter_us = f64::INFINITY;
        let mut compiled_us = f64::INFINITY;
        let mut compiled_cached_us = f64::INFINITY;
        // Warm the cache with one full pass, then measure the hit path.
        for r in &requests {
            std::hint::black_box(pdp_cached.evaluate(r));
        }
        for _ in 0..rounds {
            interpreter_us = interpreter_us.min(time_per_decision(&|r| {
                std::hint::black_box(pdp.evaluate_interpreted(r));
            }));
            compiled_us = compiled_us.min(time_per_decision(&|r| {
                std::hint::black_box(pdp.evaluate(r));
            }));
            compiled_cached_us = compiled_cached_us.min(time_per_decision(&|r| {
                std::hint::black_box(pdp_cached.evaluate(r));
            }));
        }

        let speedup = ratio(interpreter_us, compiled_us);
        let analysis_ms = if policies <= 100 {
            let start = Instant::now();
            let _ = drams_analysis::completeness(&set).expect("analysable");
            format!("{:.1}", start.elapsed().as_secs_f64() * 1_000.0)
        } else {
            "-".to_string()
        };
        println!(
            "{:>10} {:>8} {:>12.2} {:>12.2} {:>9.1}x {:>12.2} {:>16}",
            policies, rules, interpreter_us, compiled_us, speedup, compiled_cached_us, analysis_ms
        );
        rows.push(
            Object::new()
                .with("policies", policies)
                .with("rules", rules)
                .with("interpreter_us_per_decision", interpreter_us)
                .with("compiled_us_per_decision", compiled_us)
                .with("compiled_cached_us_per_decision", compiled_cached_us)
                .with("speedup_compiled_vs_interpreter", speedup),
        );
    }
    println!("\nshape: interpreter latency grows linearly in the rule base; the");
    println!("compiled engine's target index touches only candidate policies, so");
    println!("its growth is governed by index fan-out; the decision cache");
    println!("flattens repeated requests to a digest lookup. Symbolic analysis");
    println!("is superlinear (SAT), run offline.");
    Object::new().with("rows", rows)
}

/// E6 — monitoring overhead: probes must sit off the decision path.
fn e6_monitoring_overhead(quick: bool) -> Object {
    header("E6", "end-to-end request latency: monitoring off vs on");
    let base = MonitorConfig {
        total_requests: if quick { 200 } else { 1_000 },
        request_rate_per_sec: 200.0,
        ..MonitorConfig::default()
    };
    let off = MonitorConfig {
        monitoring_enabled: false,
        analyser_enabled: false,
        ..base.clone()
    };
    let wall = Instant::now();
    let (r_off, _) = run_monitor(&off, &mut NoAdversary);
    let off_wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
    let wall = Instant::now();
    let (r_on, _) = run_monitor(&base, &mut NoAdversary);
    let on_wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
    println!(
        "{:>12} {:>14} {:>14} {:>14} {:>12}",
        "monitoring", "mean ms", "p95 ms", "p99 ms", "chain txs"
    );
    for (label, r) in [("off", &r_off), ("on", &r_on)] {
        println!(
            "{:>12} {:>14.3} {:>14.3} {:>14.3} {:>12}",
            label,
            r.e2e_latency.mean() / 1_000.0,
            r.e2e_latency.percentile(95.0) as f64 / 1_000.0,
            r.e2e_latency.percentile(99.0) as f64 / 1_000.0,
            r.txs_committed
        );
    }
    let latency = |r: &MonitorReport| {
        Object::new()
            .with("mean_ms", r.e2e_latency.mean() / 1_000.0)
            .with("p95_ms", r.e2e_latency.percentile(95.0) as f64 / 1_000.0)
            .with("p99_ms", r.e2e_latency.percentile(99.0) as f64 / 1_000.0)
            .with("chain_txs", r.txs_committed)
    };
    let overhead_pct = if r_off.e2e_latency.mean() > 0.0 {
        (r_on.e2e_latency.mean() / r_off.e2e_latency.mean() - 1.0) * 100.0
    } else {
        0.0
    };
    let pipeline_mean_ms = r_on.log_commit_latency.mean() / 1_000.0;
    println!("\ncritical-path overhead: {overhead_pct:+.2}% (asynchronous probes);");
    println!("monitoring pipeline latency (observation → commit): {pipeline_mean_ms:.1} ms mean");
    println!(
        "wall clock: {off_wall_ms:.0} ms off, {on_wall_ms:.0} ms on (crypto cost of the pipeline)"
    );
    Object::new()
        .with("requests", base.total_requests)
        .with("off", latency(&r_off))
        .with("on", latency(&r_on))
        .with("critical_path_overhead_pct", overhead_pct)
        .with("pipeline_mean_ms", pipeline_mean_ms)
        .with("sim_wall_ms_off", off_wall_ms)
        .with("sim_wall_ms_on", on_wall_ms)
}

/// E7 — federation scale: tenants × request rate.
fn e7_federation_scalability() {
    header("E7", "scalability: tenants vs monitoring pipeline");
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>14} {:>12}",
        "tenants", "requests", "entries", "commit ms", "backlog max", "groups"
    );
    for &tenants in &[2u32, 8, 16, 32] {
        let config = MonitorConfig {
            federation: FederationSpec::symmetric(tenants, 1, 2),
            total_requests: 600,
            request_rate_per_sec: 150.0,
            block_interval: 250 * MILLIS,
            ..MonitorConfig::default()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        println!(
            "{:>8} {:>10} {:>12} {:>14.1} {:>14} {:>12}",
            tenants,
            report.requests_completed,
            report.entries_logged,
            report.log_commit_latency.mean() / 1_000.0,
            report.max_mempool,
            report.groups_completed
        );
    }
    println!("\nshape: the pipeline keeps up as tenants grow — per-tenant LIs");
    println!("fan in to the chain, whose block capacity is the shared bottleneck.");
}

/// E9 — the crypto substrate: Montgomery fast path vs the retained
/// Algorithm D reference, and batch vs individual Schnorr verification.
///
/// The monitoring pipeline's cost is bounded by log hashing/signing
/// (paper §III); this table tracks the primitive layer the pipeline
/// stands on. Emits `BENCH_CRYPTO.json`.
fn e9_crypto_substrate(quick: bool) -> Object {
    use drams_crypto::bignum::U256;
    use drams_crypto::montgomery;
    use drams_crypto::schnorr::{batch_verify, group_p};

    header(
        "E9",
        "crypto substrate: Algorithm D reference vs Montgomery fast path",
    );

    let iters = if quick { 8 } else { 64 };
    // Min-of-rounds, as in E5: robust against CPU contention on a
    // shared machine, which single-pass timing is not.
    let rounds = if quick { 2 } else { 5 };
    let time_us = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..rounds {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e6 / f64::from(iters));
        }
        best
    };

    // mod_pow over the real group modulus with full-width exponents.
    let p = group_p();
    let base = U256::from_hex("1e2feb89414c343c1027c4d1c386bbc4cd613e30d8f16adf91b7584a2265b1f5");
    let exp = U256::from_hex("35bf992dc9e9c616612e7696a6cecc1b78e510617311d8a3c2ce6f447ed4d57b");
    let mont_p = drams_crypto::montgomery::MontCtx::new(p);
    // (reference µs, fast µs) per operation.
    let mod_pow = (
        time_us(&mut || {
            std::hint::black_box(base.mod_pow(&exp, &p));
        }),
        time_us(&mut || {
            std::hint::black_box(mont_p.pow(&base, &exp));
        }),
    );
    // Sanity: the two paths agree (also property-tested in drams-crypto).
    assert_eq!(montgomery::mod_pow(&base, &exp, &p), base.mod_pow(&exp, &p));

    let kp = Keypair::from_seed(b"e9-crypto");
    let msg = b"a log entry submission";
    let sign = (
        time_us(&mut || {
            std::hint::black_box(kp.secret().sign_reference(msg));
        }),
        time_us(&mut || {
            std::hint::black_box(kp.sign(msg));
        }),
    );
    let sig = kp.sign(msg);
    let verify = (
        time_us(&mut || {
            kp.public().verify_reference(msg, &sig).expect("valid");
        }),
        time_us(&mut || {
            kp.public().verify(msg, &sig).expect("valid");
        }),
    );

    // Batch verification over the shared fixture (the same workload
    // bench_crypto's batch targets measure).
    let batch_size = 64usize;
    let owned = drams_bench::schnorr_batch(4, batch_size);
    let batch = drams_bench::batch_items(&owned);
    let batch_rounds = if quick { 2 } else { 8 };
    let round_us = |f: &mut dyn FnMut()| {
        let mut best = f64::INFINITY;
        for _ in 0..batch_rounds {
            let start = Instant::now();
            f();
            best = best.min(start.elapsed().as_secs_f64() * 1e6);
        }
        best
    };
    let individual_reference_us = round_us(&mut || {
        for (pk, m, s) in &batch {
            pk.verify_reference(m, s).expect("valid");
        }
    });
    let individual_fast_us = round_us(&mut || {
        for (pk, m, s) in &batch {
            pk.verify(m, s).expect("valid");
        }
    });
    let batch_us = round_us(&mut || {
        batch_verify(&batch).expect("valid batch");
    });

    println!(
        "{:>16} {:>14} {:>14} {:>10}",
        "op", "reference µs", "fast µs", "speedup"
    );
    for (name, (reference_us, fast_us)) in [
        ("mod_pow", mod_pow),
        ("schnorr sign", sign),
        ("schnorr verify", verify),
    ] {
        println!(
            "{:>16} {:>14.1} {:>14.1} {:>9.1}x",
            name,
            reference_us,
            fast_us,
            ratio(reference_us, fast_us)
        );
    }
    let speedup_vs_reference = ratio(individual_reference_us, batch_us);
    let speedup_vs_fast = ratio(individual_fast_us, batch_us);
    println!(
        "\nbatch_verify({batch_size}): {batch_us:.0} µs vs {individual_reference_us:.0} µs \
         individual-reference ({speedup_vs_reference:.1}x) and {individual_fast_us:.0} µs \
         individual-fast ({speedup_vs_fast:.2}x)"
    );
    println!("\nshape: REDC replaces a Knuth division per multiply; the fixed-base");
    println!("g-table removes all squarings from g-exponentiations; batches share");
    println!("per-key window tables across the block's signatures.");
    let old_new = |(reference_us, fast_us): (f64, f64)| {
        Object::new()
            .with("reference_us", reference_us)
            .with("fast_us", fast_us)
            .with("speedup", ratio(reference_us, fast_us))
    };
    Object::new()
        .with("mod_pow", old_new(mod_pow))
        .with("sign", old_new(sign))
        .with("verify", old_new(verify))
        .with(
            "batch_verify",
            Object::new()
                .with("batch_size", batch_size)
                .with("individual_reference_us", individual_reference_us)
                .with("individual_fast_us", individual_fast_us)
                .with("batch_us", batch_us)
                .with("speedup_vs_individual_reference", speedup_vs_reference)
                .with("speedup_vs_individual_fast", speedup_vs_fast),
        )
}

/// E10 — the end-to-end scenario matrix on the event-driven runtime:
/// steady state, burst with tenant churn, mid-flight policy flip, a
/// degraded Logging Interface, and a per-cloud PDP federation.
///
/// Emits `BENCH_E2E.json` (unless `--scenario` filtered the matrix).
fn e10_scenario_matrix(quick: bool, filter: Option<&str>) -> Object {
    use drams_core::scenario::run_scenario;

    header(
        "E10",
        "end-to-end scenario matrix (event-driven runtime, virtual time)",
    );
    let mut matrix = scenarios::matrix(quick);
    if let Some(name) = filter {
        matrix.retain(|s| s.name == name);
        assert!(
            !matrix.is_empty(),
            "unknown scenario {name:?}; known: {:?}",
            scenarios::matrix(quick)
                .iter()
                .map(|s| s.name.clone())
                .collect::<Vec<_>>()
        );
    }
    println!(
        "{:<16} {:>8} {:>9} {:>8} {:>8} {:>8} {:>7} {:>12} {:>12} {:>9}",
        "scenario",
        "requests",
        "completed",
        "dropped",
        "groups",
        "entries",
        "alerts",
        "e2e mean ms",
        "commit p95",
        "wall ms"
    );
    let mut rows = Vec::new();
    for spec in &matrix {
        let wall = Instant::now();
        let (report, truth) = run_scenario(spec, &mut NoAdversary);
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(truth.total_attacks(), 0, "scenario faults are not attacks");
        let e2e = report.e2e_latency.report();
        let e2e_mean_ms = report.e2e_latency.mean() / 1_000.0;
        let commit_p95_ms = report.log_commit_latency.percentile(95.0) as f64 / 1_000.0;
        println!(
            "{:<16} {:>8} {:>9} {:>8} {:>8} {:>8} {:>7} {:>12.3} {:>12.1} {:>9.0}",
            spec.name,
            report.requests_issued,
            report.requests_completed,
            report.requests_dropped,
            report.groups_completed,
            report.entries_logged,
            report.alerts.len(),
            e2e_mean_ms,
            commit_p95_ms,
            wall_ms
        );
        rows.push(
            Object::new()
                .with("scenario", spec.name.as_str())
                .with("requests", report.requests_issued)
                .with("completed", report.requests_completed)
                .with("dropped", report.requests_dropped)
                .with("groups_completed", report.groups_completed)
                .with("entries_logged", report.entries_logged)
                .with("alerts", report.alerts.len())
                .with("policy_activations", report.policy_activations)
                .with("retries", e2e.retries)
                .with("delivery_attempts", e2e.attempts.to_vec())
                .with("e2e_mean_ms", e2e_mean_ms)
                .with("commit_p95_ms", commit_p95_ms)
                .with("wall_ms", wall_ms)
                .with(
                    "requests_per_sec",
                    report.requests_issued as f64 / (wall_ms / 1_000.0).max(1e-9),
                )
                .with(
                    "sim_speedup",
                    (report.finished_at as f64 / 1_000.0) / wall_ms.max(1e-9),
                ),
        );
    }
    println!("\nshape: clean scenarios (steady, churn, policy-flip, per-cloud)");
    println!("complete every group with zero alerts — legitimate churn is not");
    println!("an attack; the degraded-LI fault surfaces as missing-observation");
    println!("alerts; per-cloud PDPs cut the decision hop to the local link.");
    Object::new().with("rows", rows)
}

/// E11 — the durable storage engine and the crash-restart scenarios.
///
/// Part 1 measures the log engine itself (append/replay/snapshot cost
/// per backend × durability). Part 2 runs the crash-restart matrix: each
/// monitoring-plane service is killed mid-run, restarted from its
/// durable store, and the run's alerts + ground truth are required to be
/// byte-identical to the uninterrupted twin. Emits `BENCH_STORE.json`.
fn e11_storage_and_recovery(quick: bool) -> (Object, Object) {
    use drams_core::scenario::run_scenario;
    use drams_store::{Durability, FsBackend, MemBackend, Wal, WalConfig};

    header(
        "E11",
        "durable storage engine + crash-restart recovery scenarios",
    );

    // -- part 1: the engine ------------------------------------------------
    let records: u64 = if quick { 2_000 } else { 32_000 };
    let payload = vec![0xA5u8; 256];
    let tmp_root = std::env::temp_dir().join(format!("drams-e11-{}", std::process::id()));
    let mut engine_rows = Vec::new();
    println!(
        "{:>14} {:>9} {:>10} {:>12} {:>12} {:>14}",
        "backend", "records", "payload B", "append µs", "replay µs", "snapshot µs"
    );
    let configs: [(&str, Durability); 3] = [
        ("mem-flushed", Durability::Flushed),
        ("fs-buffered", Durability::Buffered),
        ("fs-flushed", Durability::Flushed),
    ];
    for (name, durability) in configs {
        let wal_config = WalConfig {
            segment_records: 1024,
            durability,
        };
        let mut wal = if name.starts_with("fs") {
            let dir = tmp_root.join(name);
            let _ = std::fs::remove_dir_all(&dir);
            Wal::open(
                Box::new(FsBackend::open(&dir).expect("temp dir")),
                wal_config,
            )
            .expect("fs wal")
        } else {
            Wal::open(Box::new(MemBackend::new()), wal_config).expect("mem wal")
        };
        let start = Instant::now();
        for _ in 0..records {
            wal.append(&payload).expect("append");
        }
        wal.sync().expect("sync");
        let append_us = start.elapsed().as_secs_f64() * 1e6 / records as f64;
        let start = Instant::now();
        let replayed = wal.replay().expect("replay");
        assert_eq!(replayed.len() as u64, records);
        let replay_us = start.elapsed().as_secs_f64() * 1e6 / records as f64;
        let start = Instant::now();
        wal.write_snapshot(records / 2, b"engine-bench-state")
            .expect("snapshot");
        wal.prune_through(records / 2).expect("prune");
        let snapshot_us = start.elapsed().as_secs_f64() * 1e6;
        println!(
            "{:>14} {:>9} {:>10} {:>12.2} {:>12.2} {:>14.1}",
            name,
            records,
            payload.len(),
            append_us,
            replay_us,
            snapshot_us
        );
        engine_rows.push(
            Object::new()
                .with("backend", name)
                .with("records", records)
                .with("payload_bytes", payload.len())
                .with("append_us_per_record", append_us)
                .with("replay_us_per_record", replay_us)
                .with("snapshot_prune_us", snapshot_us),
        );
    }
    let _ = std::fs::remove_dir_all(&tmp_root);

    // -- part 2: the recovery matrix ---------------------------------------
    println!(
        "\n{:<16} {:>9} {:>8} {:>7} {:>8} {:>9} {:>9}",
        "scenario", "completed", "groups", "alerts", "crashes", "matched", "wall ms"
    );
    let mut recovery_rows = Vec::new();
    for spec in scenarios::recovery_matrix(quick) {
        let twin = scenarios::strip_crashes(&spec);
        let (clean, clean_truth) = run_scenario(&twin, &mut NoAdversary);
        let wall = Instant::now();
        let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        let matched = twin_matches((&clean, &clean_truth), (&crashed, &crashed_truth));
        println!(
            "{:<16} {:>9} {:>8} {:>7} {:>8} {:>9} {:>9.0}",
            spec.name,
            crashed.requests_completed,
            crashed.groups_completed,
            crashed.alerts.len(),
            crashed.crash_restarts,
            matched,
            wall_ms
        );
        recovery_rows.push(
            Object::new()
                .with("scenario", spec.name.as_str())
                .with("completed", crashed.requests_completed)
                .with("groups_completed", crashed.groups_completed)
                .with("alerts", crashed.alerts.len())
                .with("crash_restarts", crashed.crash_restarts)
                .with("matched", matched)
                .with("wall_ms", wall_ms),
        );
    }
    println!("\nshape: appends are µs-scale on every backend (fsync dominates the");
    println!("fs-flushed row); replay is sequential-scan fast; every crashed");
    println!("service restarts from disk and the run is byte-identical to the");
    println!("uninterrupted twin — recovery loses nothing and repeats nothing.");
    (
        Object::new().with("rows", engine_rows),
        Object::new().with("rows", recovery_rows),
    )
}

/// E8 — ablations of DRAMS design choices.
fn e8_ablations() {
    header("E8", "ablations: LI batching and epoch length");
    println!("-- LI batch size (600 requests) --");
    println!(
        "{:>8} {:>10} {:>14} {:>16}",
        "batch", "chain txs", "commit ms", "entries/tx"
    );
    for &batch in &[1usize, 4, 16, 64] {
        let config = MonitorConfig {
            total_requests: 600,
            request_rate_per_sec: 200.0,
            li_batch_size: batch,
            ..MonitorConfig::default()
        };
        let (report, _) = run_monitor(&config, &mut NoAdversary);
        println!(
            "{:>8} {:>10} {:>14.1} {:>16.2}",
            batch,
            report.txs_committed,
            report.log_commit_latency.mean() / 1_000.0,
            report.entries_logged as f64 / report.txs_committed.max(1) as f64
        );
    }

    println!("\n-- epoch length vs drop-log detection latency --");
    println!(
        "{:>14} {:>10} {:>14} {:>10}",
        "epoch blocks", "attacks", "detect ms", "rate"
    );
    for &epoch in &[1u64, 2, 5, 10] {
        let config = MonitorConfig {
            total_requests: 300,
            request_rate_per_sec: 150.0,
            epoch_blocks: epoch,
            group_timeout: 2 * SECONDS,
            seed: 5,
            ..MonitorConfig::default()
        };
        let mut adversary = ScriptedAdversary::new(ThreatKind::DropLog, 0.08, 17);
        let (report, truth) = run_monitor(&config, &mut adversary);
        let s = score(ThreatKind::DropLog, &report, &truth);
        println!(
            "{:>14} {:>10} {:>14.1} {:>9.1}%",
            epoch,
            s.attacks,
            s.mean_detection_latency_us / 1_000.0,
            s.rate() * 100.0
        );
    }
    println!("\nshape: batching cuts chain traffic ~linearly at equal commit");
    println!("latency; longer epochs delay timeout-based detection.");
}

/// E12 — adversarial scenario fuzzing: `--quick` runs 60 seed-generated
/// scenarios (full mode 300) spanning honest churn, windowed attack
/// campaigns over the full nine-threat catalogue, Byzantine chain-node
/// behaviour and crash-restart points, each judged by the three-part
/// ground-truth oracle (attacks detected, honest runs alert-free,
/// crashed runs byte-identical to their uninterrupted twin). Oracle
/// violations are shrunk to a minimal scenario and printed as
/// compilable Rust. Emits `BENCH_FUZZ.json`.
fn e12_adversarial_fuzz(quick: bool) -> Object {
    use drams_fuzz::{generate, render_rust, run_case, shrink, COVERAGE_PRELUDE};
    use std::collections::BTreeMap;

    header(
        "E12",
        "adversarial scenario fuzzing, oracle-checked end to end",
    );
    let budget: u64 = if quick { 60 } else { 300 };
    assert!(
        budget >= COVERAGE_PRELUDE,
        "budget must include the prelude"
    );
    println!("budget: {budget} scenarios (seeds 0..{budget}; 0..{COVERAGE_PRELUDE} = directed coverage prelude)\n");
    println!(
        "{:>5} {:<34} {:>7} {:>8} {:>8} {:>4} {:>5} {:>4}",
        "seed", "scenario", "events", "injectd", "detectd", "fp", "twin", "ok"
    );

    let mut scenarios = 0u64;
    let mut events = 0u64;
    let mut attacks_injected = 0u64;
    let mut attacks_detected = 0u64;
    let mut false_positives = 0u64;
    let mut crash_twins_checked = 0u64;
    let mut violations = 0u64;
    let mut shrunk_failures = 0u64;
    let mut families: BTreeMap<&'static str, u64> = BTreeMap::new();
    for seed in 0..budget {
        let case = generate(seed);
        for family in case.families() {
            *families.entry(family).or_insert(0) += 1;
        }
        let outcome = run_case(&case);
        scenarios += 1;
        events += outcome.events;
        attacks_injected += outcome.attacks_injected as u64;
        attacks_detected += outcome.attacks_detected as u64;
        false_positives += outcome.false_positives as u64;
        crash_twins_checked += u64::from(outcome.crash_twin_checked);
        let ok = outcome.violations.is_empty();
        println!(
            "{:>5} {:<34} {:>7} {:>8} {:>8} {:>4} {:>5} {:>4}",
            seed,
            outcome.name,
            outcome.events,
            outcome.attacks_injected,
            outcome.attacks_detected,
            outcome.false_positives,
            if outcome.crash_twin_checked {
                "yes"
            } else {
                "-"
            },
            if ok { "ok" } else { "FAIL" }
        );
        if !ok {
            violations += outcome.violations.len() as u64;
            for violation in &outcome.violations {
                eprintln!("  violation: {violation}");
            }
            let minimal = shrink(&case, |c| !run_case(c).violations.is_empty());
            shrunk_failures += 1;
            println!("\n--- minimal reproduction of seed {seed} ---");
            println!("{}", render_rust(&minimal));
        }
    }

    println!("\n-- attack-family coverage (scenarios per family) --");
    for (family, count) in &families {
        println!("{family:>20}: {count}");
    }
    println!(
        "\n{scenarios} scenarios, {events} events, {attacks_detected}/{attacks_injected} attacks \
         detected, {false_positives} false positives, {crash_twins_checked} crash twins checked, \
         {violations} violations"
    );
    let families = families
        .into_iter()
        .fold(Object::new(), |obj, (family, count)| {
            obj.with(family, count)
        });
    Object::new()
        .with("scenarios", scenarios)
        .with("events", events)
        .with("attacks_injected", attacks_injected)
        .with("attacks_detected", attacks_detected)
        .with("false_positives", false_positives)
        .with("crash_twins_checked", crash_twins_checked)
        .with("violations", violations)
        .with("shrunk_failures", shrunk_failures)
        .with("families", families)
}

/// E13 — the deterministic network fault plane and graceful degradation.
///
/// Part 1 runs the honest fault matrix (lossy links, duplication +
/// reordering + delay, an LI↔chain partition, a scripted PDP outage):
/// retries, circuit-breaker failover, WAL spill/replay and degraded-mode
/// timeout widening must fully mask every declared fault — zero alerts,
/// zero abandoned requests, 100% availability. Part 2 mounts attack
/// campaigns *on top of* the lossy plan: every injected attack must
/// still be detected, with zero false positives. Part 3 crashes a PDP
/// under duplicating faults and requires byte-identity with the
/// uninterrupted twin. Emits `BENCH_FAULT.json`.
fn e13_fault_plane(quick: bool) -> Object {
    use drams_core::scenario::run_scenario;
    use drams_faas::fault::LinkFault;

    header(
        "E13",
        "network fault plane: retry/failover/spill-replay, degraded mode",
    );

    // -- part 1: the honest fault matrix -----------------------------------
    println!(
        "{:<20} {:>6} {:>7} {:>8} {:>7} {:>6} {:>6} {:>8} {:>7} {:>7} {:>9} {:>7} {:>8}",
        "scenario",
        "compl",
        "avail%",
        "retries",
        "msgdrop",
        "dup",
        "part",
        "breaker",
        "failovr",
        "spill",
        "recov ms",
        "alerts",
        "wall ms"
    );
    let mut rows = Vec::new();
    for spec in scenarios::fault_matrix(quick) {
        let wall = Instant::now();
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        assert_eq!(truth.total_attacks(), 0, "faults are not attacks");
        let e2e = report.e2e_latency.report();
        let failover = report.failover_e2e.report();
        let recovery = report.spill_recovery.report();
        let availability_pct =
            100.0 * report.requests_completed as f64 / report.requests_issued.max(1) as f64;
        let failover_p95_ms = if failover.count > 0 {
            failover.p95 as f64 / 1_000.0
        } else {
            f64::NAN
        };
        let recovery_mean_ms = if recovery.count > 0 {
            recovery.mean / 1_000.0
        } else {
            f64::NAN
        };
        // The honest scenarios complete every request exactly once, so
        // the delivery-attempt histogram sums back to the completions.
        assert_eq!(e2e.attempts.iter().sum::<u64>(), report.requests_completed);
        println!(
            "{:<20} {:>6} {:>7.1} {:>8} {:>7} {:>6} {:>6} {:>8} {:>7} {:>7} {:>9} {:>7} {:>8.0}",
            spec.name,
            report.requests_completed,
            availability_pct,
            report.retries_total,
            report.faults.dropped,
            report.faults.duplicated,
            report.faults.partition_blocked,
            report.breaker_trips,
            report.failovers,
            report.li_spilled,
            if recovery.count > 0 {
                format!("{recovery_mean_ms:.0}")
            } else {
                "-".to_string()
            },
            report.alerts.len(),
            wall_ms
        );
        rows.push(
            Object::new()
                .with("scenario", spec.name.as_str())
                .with("requests", report.requests_issued)
                .with("completed", report.requests_completed)
                .with("dropped", report.requests_dropped)
                .with("availability_pct", availability_pct)
                .with("retries", report.retries_total)
                .with("msgs_dropped", report.faults.dropped)
                .with("msgs_duplicated", report.faults.duplicated)
                .with("msgs_reordered", report.faults.reordered)
                .with("partition_blocked", report.faults.partition_blocked)
                .with("breaker_trips", report.breaker_trips)
                .with("failovers", report.failovers)
                .with("failover_p95_ms", failover_p95_ms)
                .with("li_spilled", report.li_spilled)
                .with("li_replayed", report.li_replayed)
                .with("recovery_mean_ms", recovery_mean_ms)
                .with("timeout_retunes", report.timeout_retunes)
                .with("alerts", report.alerts.len())
                .with("wall_ms", wall_ms),
        );
    }

    // -- part 2: attack campaigns under the lossy plan ---------------------
    println!("\n-- detection under faults (lossy plan active, windowed campaigns) --");
    println!(
        "{:<18} {:>8} {:>9} {:>5} {:>14}",
        "threat", "attacks", "detected", "fp", "mean detect ms"
    );
    let mut detection = Vec::new();
    for (threat, seed) in [
        (ThreatKind::DropLog, 31u64),
        (ThreatKind::TamperRequest, 32),
        (ThreatKind::FlipEnforcement, 33),
    ] {
        let mut spec = scenarios::by_name("lossy_links", quick).expect("E13 matrix scenario");
        spec.name = format!("{threat}_under_faults");
        let inner = ScriptedAdversary::new(threat, 0.1, seed);
        let mut adversary = WindowedAdversary::new(inner, vec![FaultWindow::new(0, 1500 * MILLIS)]);
        let (report, truth) = run_scenario(&spec, &mut adversary);
        let s = score(threat, &report, &truth);
        let mean_detection_ms = s.mean_detection_latency_us / 1_000.0;
        println!(
            "{:<18} {:>8} {:>9} {:>5} {:>14.1}",
            threat, s.attacks, s.detected, s.false_positives, mean_detection_ms
        );
        detection.push(
            Object::new()
                .with("threat", threat.to_string())
                .with("attacks", s.attacks)
                .with("detected", s.detected)
                .with("false_positives", s.false_positives)
                .with("mean_detection_ms", mean_detection_ms),
        );
    }

    // -- part 3: a PDP crash under duplicating faults vs its twin ----------
    let mut spec = scenarios::by_name("crash_pdp", quick).expect("E11 matrix scenario");
    spec.name = "crash_pdp_faults".to_string();
    spec.faults.links.push(LinkFault {
        duplicate_permille: 300,
        reorder_permille: 200,
        reorder_spread: 5 * MILLIS,
        active_from: 0,
        active_until: 1500 * MILLIS,
        ..LinkFault::default()
    });
    let twin_spec = scenarios::strip_crashes(&spec);
    let (clean, clean_truth) = run_scenario(&twin_spec, &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&spec, &mut NoAdversary);
    let matched = twin_matches((&clean, &clean_truth), (&crashed, &crashed_truth));
    println!(
        "\ncrash_pdp under duplicating faults: {} crash-restart(s), twin matched: {matched}",
        crashed.crash_restarts
    );

    println!("\nshape: capped-backoff retries mask loss, the journaled decision");
    println!("cache absorbs duplicates and crashes, the breaker fails new work");
    println!("over to healthy PDPs, partitions spill to the LI WAL and replay on");
    println!("heal, and degraded mode widens epoch timeouts over declared fault");
    println!("windows — transient faults never alert, real attacks always do.");
    Object::new()
        .with("rows", rows)
        .with("detection_under_faults", detection)
        .with(
            "crash_fault_twin",
            Object::new()
                .with("scenario", spec.name.as_str())
                .with("crash_restarts", crashed.crash_restarts)
                .with("matched", matched),
        )
}

/// E14 — overload robustness: a Zipf-skewed flash crowd over a
/// 2000-tenant population, with every bounded-state mechanism armed.
///
/// Part 1 runs the ≥100k-request honest flash crowd: the admission cap
/// must shed the overflow (never silently queue it), every admitted
/// request must complete, not a single alert may fire, and every peak
/// tracked-state gauge is recorded. Part 2 mounts attack campaigns
/// *during* the flash crowd: every mounted attack must still be
/// detected with zero false positives while shedding is active (shed
/// requests carry no evidence, so overflow can never masquerade as an
/// attack or hide one). Part 3 crashes a PDP mid-spike and requires
/// byte-identity with the uninterrupted twin. Emits `BENCH_LOAD.json`.
fn e14_overload(quick: bool) -> Object {
    use drams_core::scenario::run_scenario;

    header(
        "E14",
        "overload robustness: flash crowds, shedding, bounded peak state",
    );

    // -- part 1: the honest flash crowd ------------------------------------
    let spec = scenarios::flash_crowd(quick);
    let wall = Instant::now();
    let (report, truth) = run_scenario(&spec, &mut NoAdversary);
    let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
    assert_eq!(truth.total_attacks(), 0, "overload is not an attack");
    let peaks = [
        ("peak_pep_inflight", report.peak.pep_inflight),
        ("peak_pdp_idempotency", report.peak.pdp_idempotency),
        ("peak_pdp_decision_cache", report.peak.pdp_decision_cache),
        ("peak_li_resident", report.peak.li_resident),
        (
            "peak_analyser_pending_retire",
            report.peak.analyser_pending_retire,
        ),
        ("peak_contract_storage", report.peak.contract_storage),
        (
            "peak_chain_journal_records",
            report.peak.chain_journal_records,
        ),
        ("peak_policy_history", report.peak.policy_history),
    ];
    println!(
        "{:<18} {:>9} {:>9} {:>8} {:>9} {:>7} {:>9}",
        "scenario", "requests", "complete", "shed", "degraded", "alerts", "wall ms"
    );
    println!(
        "{:<18} {:>9} {:>9} {:>8} {:>9} {:>7} {:>9.0}",
        spec.name,
        report.requests_issued,
        report.requests_completed,
        report.requests_shed,
        report.degraded_admissions,
        report.alerts.len(),
        wall_ms
    );
    println!("\n-- peak tracked state (honest flash crowd) --");
    for (key, value) in peaks {
        println!("{key:<28} {value:>10}");
    }
    println!(
        "{:<28} {:>10}   (evictions: idempotency {}, decision-cache {};",
        "bounded-state counters", "", report.idempotency_evictions, report.decision_cache_evictions
    );
    println!(
        "{:<28} {:>10}    groups retired {}, journal compactions {})",
        "", "", report.groups_retired, report.journal_compactions
    );
    let honest = Object::new()
        .with("scenario", spec.name.as_str())
        .with("requests", report.requests_issued)
        .with("completed", report.requests_completed)
        .with("shed", report.requests_shed)
        .with("degraded", report.degraded_admissions)
        .with(
            "admitted_completion_pct",
            100.0 * report.requests_completed as f64
                / (report.requests_issued - report.requests_shed).max(1) as f64,
        )
        .with("alerts", report.alerts.len())
        .with("idempotency_evictions", report.idempotency_evictions)
        .with("decision_cache_evictions", report.decision_cache_evictions)
        .with("groups_retired", report.groups_retired)
        .with("journal_compactions", report.journal_compactions);
    let honest = peaks
        .into_iter()
        .fold(honest, |row, (key, value)| row.with(key, value))
        .with("wall_ms", wall_ms);

    // -- part 2: attack campaigns inside the flash crowd -------------------
    println!("\n-- detection under overload (campaigns inside the spike window) --");
    println!(
        "{:<18} {:>8} {:>9} {:>5} {:>8}",
        "threat", "attacks", "detected", "fp", "shed"
    );
    let mut detection = Vec::new();
    for (threat, seed) in [
        (ThreatKind::DropLog, 41u64),
        (ThreatKind::TamperRequest, 42),
        (ThreatKind::FlipEnforcement, 43),
    ] {
        let mut spec = scenarios::overload_attack_base(quick);
        spec.name = format!("{threat}_under_overload");
        let inner = ScriptedAdversary::new(threat, 0.05, seed);
        let mut adversary = WindowedAdversary::new(
            inner,
            vec![FaultWindow::new(2 * SECONDS, 6 * SECONDS)], // the spike
        );
        let (report, truth) = run_scenario(&spec, &mut adversary);
        let s = score(threat, &report, &truth);
        println!(
            "{:<18} {:>8} {:>9} {:>5} {:>8}",
            threat, s.attacks, s.detected, s.false_positives, report.requests_shed
        );
        detection.push(
            Object::new()
                .with("threat", threat.to_string())
                .with("attacks", s.attacks)
                .with("detected", s.detected)
                .with("false_positives", s.false_positives)
                .with("shed", report.requests_shed),
        );
    }

    // -- part 3: a PDP crash mid-spike vs its twin -------------------------
    let crash_spec = scenarios::overload_crash(quick);
    let twin_spec = scenarios::strip_crashes(&crash_spec);
    let (clean, clean_truth) = run_scenario(&twin_spec, &mut NoAdversary);
    let (crashed, crashed_truth) = run_scenario(&crash_spec, &mut NoAdversary);
    let matched = twin_matches((&clean, &clean_truth), (&crashed, &crashed_truth));
    println!(
        "\ncrash mid-spike: {} crash-restart(s), {} shed, twin matched: {matched}",
        crashed.crash_restarts, crashed.requests_shed
    );

    println!("\nshape: admission control sheds overflow before interception (no");
    println!("group opens, no evidence is fabricated or lost), LRU and retention");
    println!("caps bound every cache, closed groups retire from contract storage,");
    println!("and the chain journal compacts — peak state stays flat while the");
    println!("flash crowd runs, honest overload never alerts, attacks always do.");
    Object::new()
        .with("honest", honest)
        .with("detection_under_overload", detection)
        .with(
            "crash_overload_twin",
            Object::new()
                .with("scenario", crash_spec.name.as_str())
                .with("crash_restarts", crashed.crash_restarts)
                .with("shed", crashed.requests_shed)
                .with("matched", matched),
        )
}

/// E15 — deterministic parallel execution: worker-pool scaling.
///
/// Pins the `drams_faas::par` pool to 1/2/4/8 workers and runs three
/// workloads at each count: the chain signature-audit path (Merkle root
/// + chunked batch verification over a wide block), compiled-PDP
/// evaluation over a generated request stream, and the E14 flash crowd
/// scaled to one million requests (full mode). Every workload must be
/// byte-identical at every worker count — results merge in submission
/// order, so the worker count is invisible (`determinism_ok`).
///
/// The `speedup_ok` gate is adaptive to the producing host: with ≥2
/// cores the verify-heavy row must beat 1.0x at workers=4; on a
/// single-core host a wall-clock speedup is physically impossible, so
/// the same row must instead stay above a 0.75x overhead floor (the
/// pool's thread spawns may not eat more than a quarter of throughput).
/// Emits `BENCH_PAR.json`.
fn e15_parallel(quick: bool) -> Object {
    use drams_chain::tx::Transaction;
    use drams_core::scenario::run_scenario;
    use drams_faas::par;

    header(
        "E15",
        "deterministic parallel execution: worker-pool scaling",
    );
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    println!("host cores: {host_cores}  (speedup gate adapts to single-core hosts)\n");
    let saved_workers = par::workers();
    let counts: [usize; 4] = [1, 2, 4, 8];
    let mut rows: Vec<Object> = Vec::new();
    let mut determinism_ok = true;
    // Records one row and returns its speedup over `base`, the
    // workload's workers=1 throughput (every sweep starts at 1).
    let mut push_row = |base: &mut Option<f64>,
                        workload: &str,
                        workers: usize,
                        items: u64,
                        wall_ms: f64| {
        let per_sec = items as f64 / (wall_ms / 1_000.0).max(1e-9);
        let speedup = per_sec / base.get_or_insert(per_sec).max(1e-9);
        println!(
            "{workload:<16} workers {workers:>2}  items {items:>9}  wall {wall_ms:>9.1} ms  {per_sec:>12.0}/s  {speedup:>6.2}x"
        );
        rows.push(
            Object::new()
                .with("workload", workload)
                .with("workers", workers)
                .with("items", items)
                .with("wall_ms", wall_ms)
                .with("per_sec", per_sec)
                .with("speedup", speedup),
        );
        speedup
    };

    // -- workload 1: the signature-audit path (verify-heavy) ---------------
    let tx_count: usize = if quick { 1_024 } else { 4_096 };
    let kp = Keypair::from_seed(b"e15-sig-audit");
    let txs: Vec<Transaction> = (0..tx_count)
        .map(|i| {
            Transaction::new_signed(&kp, i as u64, "monitor", "store", vec![(i % 251) as u8; 48])
        })
        .collect();
    let block = Block::mine(drams_crypto::sha256::Digest::ZERO, 0, txs, 0, 0);
    let mut reference_root = None;
    let mut base = None;
    let mut audit_speedup_at_4 = 0.0;
    for w in counts {
        par::set_workers(w);
        let wall = Instant::now();
        let root = Block::compute_tx_root(&block.transactions);
        let verdict = block.verify_signatures();
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        if verdict.is_err() {
            determinism_ok = false;
        }
        match &reference_root {
            None => reference_root = Some(root),
            Some(r) => {
                if *r != root {
                    determinism_ok = false;
                    eprintln!("sig_audit root diverged at workers={w}");
                }
            }
        }
        let speedup = push_row(&mut base, "sig_audit", w, tx_count as u64, wall_ms);
        if w == 4 {
            audit_speedup_at_4 = speedup;
        }
    }

    // -- workload 2: compiled-PDP evaluation --------------------------------
    let request_count: usize = if quick { 20_000 } else { 60_000 };
    let shape = PolicyShape {
        policies: 100,
        rules_per_policy: 5,
        ..PolicyShape::default()
    };
    let mut pgen = PolicyGenerator::new(Vocabulary::default(), 15);
    let set = pgen.next_policy_set(&shape);
    // Cache off: every evaluation does real engine work, and the
    // workload is a pure function of the request at any worker count.
    let pdp = Pdp::with_cache_capacity(set, 0);
    let mut rgen = RequestGenerator::new(Vocabulary::default(), 1.0, 16);
    let requests: Vec<_> = (0..request_count).map(|_| rgen.next_request()).collect();
    let mut reference_decisions: Option<Vec<drams_policy::decision::Response>> = None;
    let mut base = None;
    for w in counts {
        par::set_workers(w);
        let wall = Instant::now();
        let decisions = par::map(&requests, 2, |r| pdp.evaluate(r));
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        match &reference_decisions {
            None => reference_decisions = Some(decisions),
            Some(d) => {
                if *d != decisions {
                    determinism_ok = false;
                    eprintln!("pdp_eval decisions diverged at workers={w}");
                }
            }
        }
        push_row(&mut base, "pdp_eval", w, request_count as u64, wall_ms);
    }

    // -- workload 3: the million-request flash crowd ------------------------
    // The full event-driven simulation: arrivals, enforcement, logging,
    // mining, analysis. Parallel lanes cover only its pure-compute
    // fraction (per-cloud PDP evaluation, signature audit, Merkle and
    // batch encodings), so this row measures the end-to-end dividend,
    // not a microbenchmark. Quick mode trims the crowd and the counts.
    let crowd_counts: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };
    let spec = scenarios::mega_crowd(quick);
    let mut reference_crowd = None;
    let mut base = None;
    for &w in crowd_counts {
        par::set_workers(w);
        let wall = Instant::now();
        let (report, truth) = run_scenario(&spec, &mut NoAdversary);
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        let alerts: Vec<Vec<u8>> = report
            .alerts
            .iter()
            .map(Encode::to_canonical_bytes)
            .collect();
        let fingerprint = (
            alerts,
            truth,
            (
                report.requests_issued,
                report.requests_completed,
                report.requests_shed,
                report.entries_logged,
                report.groups_completed,
                report.txs_committed,
                report.groups_retired,
                report.policy_history_retired,
            ),
            report.peak,
            report.faults,
            report.finished_at,
        );
        match &reference_crowd {
            None => reference_crowd = Some(fingerprint),
            Some(f) => {
                if *f != fingerprint {
                    determinism_ok = false;
                    eprintln!("{} diverged at workers={w}", spec.name);
                }
            }
        }
        push_row(&mut base, &spec.name, w, report.requests_issued, wall_ms);
    }
    par::set_workers(saved_workers);

    let speedup_ok = if host_cores >= 2 {
        audit_speedup_at_4 > 1.0
    } else {
        audit_speedup_at_4 >= 0.75
    };
    println!(
        "\nsig_audit at workers=4: {audit_speedup_at_4:.2}x ({}), determinism: {}",
        if host_cores >= 2 {
            "gate: > 1.0x"
        } else {
            "single-core host, gate: >= 0.75x overhead floor"
        },
        if determinism_ok {
            "byte-identical at every worker count"
        } else {
            "DIVERGED"
        }
    );
    println!("\nshape: compute lanes (signature audit, PDP evaluation, Merkle,");
    println!("batch encoding) scale with workers while the DES event loop stays");
    println!("single-threaded; submission-order merging makes the worker count");
    println!("observationally invisible, so the same bytes come out at any size.");
    Object::new()
        .with("host_cores", host_cores)
        .with("determinism_ok", determinism_ok)
        .with("speedup_ok", speedup_ok)
        .with("rows", rows)
}

/// E16 — the real transport (DESIGN.md invariant 9): loopback TCP
/// round-trip latency and frame throughput per payload size, the cost
/// of killing and lazily re-provisioning a service endpoint, and a
/// DES-vs-TCP conformance replay of the steady-state scenario.
fn e16_net(quick: bool) -> Object {
    use drams_core::adversary::NoAdversary;
    use drams_core::scenario::{run_scenario, run_scenario_with_transport};
    use drams_crypto::codec::Encode;
    use drams_faas::transport::{Transport, WireFrame, WireRole};
    use drams_net::TcpTransport;

    header(
        "E16",
        "real transport: loopback TCP round-trips and conformance",
    );
    let mut transport = TcpTransport::loopback();
    let mut seq = 0u64;
    let mut roundtrip = |transport: &mut TcpTransport, payload: Vec<u8>| {
        seq += 1;
        let frame = WireFrame {
            role: WireRole::Pdp { slot: 0 },
            kind: 0,
            seq,
            delay: 0,
            payload,
        };
        transport.roundtrip(frame).expect("loopback round-trip");
    };

    // -- round-trip latency and throughput per payload size -----------------
    // 192 bytes ≈ a canonical RequestEnvelope; 4 KiB ≈ a batched log
    // delivery. Warm-up covers endpoint provisioning + connect.
    let frames_per_size: u64 = if quick { 2_000 } else { 20_000 };
    let mut rows = Vec::new();
    for &payload_bytes in &[192usize, 4_096] {
        roundtrip(&mut transport, vec![0xA5; payload_bytes]);
        let mut lat_us = Vec::with_capacity(frames_per_size as usize);
        let wall = Instant::now();
        for _ in 0..frames_per_size {
            let t = Instant::now();
            roundtrip(&mut transport, vec![0xA5; payload_bytes]);
            lat_us.push(t.elapsed().as_secs_f64() * 1_000_000.0);
        }
        let wall_ms = wall.elapsed().as_secs_f64() * 1_000.0;
        lat_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rt_mean_us = lat_us.iter().sum::<f64>() / lat_us.len() as f64;
        let rt_p95_us = lat_us[(lat_us.len() * 95 / 100).min(lat_us.len() - 1)];
        let frames_per_sec = frames_per_size as f64 / (wall_ms / 1_000.0).max(1e-9);
        println!(
            "payload {payload_bytes:>5} B  frames {frames_per_size:>6}  wall {wall_ms:>8.1} ms  \
             mean {rt_mean_us:>7.1} us  p95 {rt_p95_us:>7.1} us  {frames_per_sec:>8.0} frames/s"
        );
        rows.push(
            Object::new()
                .with("payload_bytes", payload_bytes)
                .with("frames", frames_per_size)
                .with("wall_ms", wall_ms)
                .with("rt_mean_us", rt_mean_us)
                .with("rt_p95_us", rt_p95_us)
                .with("frames_per_sec", frames_per_sec.round() as u64),
        );
    }

    // -- reconnect cost: kill the endpoint, re-provision, first echo --------
    let cycles: u64 = if quick { 20 } else { 100 };
    let mut costs_us = Vec::with_capacity(cycles as usize);
    for _ in 0..cycles {
        let t = Instant::now();
        transport
            .restart(WireRole::Pdp { slot: 0 })
            .expect("restart");
        roundtrip(&mut transport, vec![0xA5; 192]);
        costs_us.push(t.elapsed().as_secs_f64() * 1_000_000.0);
    }
    let mean_us = costs_us.iter().sum::<f64>() / costs_us.len() as f64;
    let max_us = costs_us.iter().copied().fold(0.0f64, f64::max);
    println!(
        "reconnect: {cycles} kill/re-provision cycles  mean {mean_us:>8.1} us  max {max_us:>8.1} us"
    );

    // -- conformance: the steady-state scenario over both backends ----------
    let spec = scenarios::steady_state(true);
    let (des, des_truth) = run_scenario(&spec, &mut NoAdversary);
    let mut tcp_transport = TcpTransport::loopback();
    let (tcp, tcp_truth) = run_scenario_with_transport(&spec, &mut NoAdversary, &mut tcp_transport);
    let stats = tcp_transport.stats();
    let alert_bytes = |r: &MonitorReport| -> Vec<Vec<u8>> {
        r.alerts.iter().map(Encode::to_canonical_bytes).collect()
    };
    let matched = stats.frames > 0
        && des_truth == tcp_truth
        && alert_bytes(&des) == alert_bytes(&tcp)
        && des.requests_completed == tcp.requests_completed
        && des.entries_logged == tcp.entries_logged
        && des.finished_at == tcp.finished_at;
    println!(
        "conformance: {}  frames {}  {}",
        spec.name,
        stats.frames,
        if matched {
            "byte-identical over DES and TCP"
        } else {
            "DIVERGED"
        }
    );
    Object::new()
        .with("transport", transport.name())
        .with("rows", rows)
        .with(
            "reconnect",
            Object::new()
                .with("cycles", cycles)
                .with("mean_us", mean_us)
                .with("max_us", max_us),
        )
        .with(
            "conformance",
            Object::new()
                .with("scenario", spec.name.as_str())
                .with("frames", stats.frames)
                .with("matched", matched),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parse_args_accepts_selectors_and_flags() {
        let all = parse(&[]).unwrap();
        assert!(all.wants("e1") && all.wants("e16") && !all.quick);
        let args = parse(&["e4", "e10", "--quick", "--scenario", "steady_state"]).unwrap();
        assert_eq!(args.selected, ["e4", "e10"]);
        assert!(args.quick && args.wants("e10") && !args.wants("e5"));
        assert_eq!(args.scenario.as_deref(), Some("steady_state"));
        assert!(parse(&["e4", "all"]).unwrap().wants("e9"));
    }

    #[test]
    fn parse_args_rejects_unknown_selectors_and_flags() {
        for bad in [&["e17"][..], &["e4", "--quik"], &["E4"], &["--scenario"]] {
            let err = parse(bad).unwrap_err();
            assert!(err.contains("--scenario"), "{bad:?}: {err}");
        }
    }
}

//! The traced replay of a DES workload.
//!
//! `run_scenario` is one monolithic call, so the benchmark cannot time
//! the layers inside it. The replay rebuilds the same deployment from
//! the same public constructors `run_scenario` uses, drives it with the
//! same seeded request stream on the same [`ServiceRuntime`], and wraps
//! each call into a layer in a span:
//!
//! | span                  | layer      | call                                   |
//! |-----------------------|------------|----------------------------------------|
//! | `store.compact`       | `store`    | `drams_store::compact_node_journal`    |
//! | `chain.mine`          | `chain`    | `Node::mine_block`                     |
//! | `analyser.poll`       | `analyser` | `Analyser::poll`                       |
//! | `analyser.checkpoint` | `analyser` | `Analyser::checkpoint`                 |
//! | `li.store`, `li.flush`| `li`       | `LoggingInterface::store` / `::flush`  |
//! | `probe.observe`       | `probe`    | the three `Probe::observe_*` calls     |
//! | `policy.evaluate`     | `policy`   | `Pdp::evaluate`                        |
//!
//! Each service handler is a `runtime.<service>` span that the layer
//! spans nest under. The replay covers what the benchmark's workloads
//! exercise — no fault plane, no scenario script, no crash-restarts and
//! no PEP retries (no round trip comes near the first retry timeout on
//! a perfect network) — and leaves out the PDP slots' private
//! idempotency journal, which no public call reaches; its cost stays in
//! the untraced run's residual. The replay stops at the untraced run's
//! last event time, so it sees exactly the events that run handled.

use crate::trace::Tracer;
use drams_attack::CompositeAdversary;
use drams_chain::chain::ChainConfig;
use drams_chain::node::Node;
use drams_core::adversary::Adversary;
use drams_core::alert::Alert;
use drams_core::analyser::Analyser;
use drams_core::contract::{MonitorContract, MONITOR_CONTRACT};
use drams_core::li::LoggingInterface;
use drams_core::logent::{LogEntry, ObservationPoint, ProbeId};
use drams_core::probe::Probe;
use drams_core::scenario::{
    probe_mac_key, LoadProfile, PdpPlacement, RngStreams, ScenarioSpec, PDP_PROBE_BASE,
};
use drams_crypto::aead::SymmetricKey;
use drams_crypto::codec::Decode;
use drams_crypto::schnorr::Keypair;
use drams_faas::des::{Outbox, ServiceRuntime, SimService, SimTime};
use drams_faas::model::{LatencyModel, TenantSpec};
use drams_faas::msg::{CorrelationId, RequestEnvelope, ResponseEnvelope};
use drams_faas::pep::Pep;
use drams_faas::prp::Prp;
use drams_faas::workload::{PoissonArrivals, RequestGenerator, Vocabulary, Zipf};
use drams_policy::attr::Request;
use drams_policy::pdp::Pdp;
use drams_store::persist::{compact_node_journal, WalJournal};
use drams_store::{Durability, MemBackend, SnapshotStore, Wal, WalConfig};
use rand::Rng;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::rc::Rc;
use std::time::Instant;

/// Segment size of the chain node's write-ahead journal.
const NODE_WAL_SEGMENT: usize = 256;
/// Segment size of each LI's backlog WAL.
const LI_WAL_SEGMENT: usize = 64;
/// Workload generator seed offset from the master seed.
const GENERATOR_SEED_XOR: u64 = 0x9e37;

fn wal(segment_records: usize) -> Wal {
    Wal::open(
        Box::new(MemBackend::new()),
        WalConfig {
            segment_records,
            durability: Durability::Flushed,
        },
    )
    .expect("fresh in-memory wal")
}

/// One PDP instance with its probe.
struct PdpSlot {
    pdp: Pdp,
    probe: Probe,
}

/// Everything `run_scenario` builds before the first request is
/// issued, from the same constructors and settings.
pub struct Deployment {
    load: LoadProfile,
    peps: Vec<Pep>,
    pep_probes: Vec<Probe>,
    slots: Vec<PdpSlot>,
    pdp_slot_of_tenant: Vec<usize>,
    lis: Vec<LoggingInterface>,
    node: Node,
    node_wal: Rc<RefCell<Wal>>,
    analyser: Analyser,
    admin: Keypair,
    event_cursor: usize,
}

impl Deployment {
    /// Builds the deployment of `spec`, letting `adversary` swap the
    /// served policy as `run_scenario` does.
    pub fn new(spec: &ScenarioSpec, adversary: &mut CompositeAdversary) -> Self {
        let config = &spec.config;
        let load = spec.load.clamped();
        let tenants = &config.federation.tenants;
        let tenant_count = tenants.len().max(1);
        let peps = tenants
            .iter()
            .map(|t| Pep::new(t.pep, t.id, config.bias))
            .collect();
        let authorised = config.policy.clone();
        let active = adversary
            .swap_policy(&authorised)
            .unwrap_or_else(|| authorised.clone());
        let prp = Prp::new(active);

        let key = SymmetricKey::from_bytes([42; 32]);
        let mut probe_mac_keys: BTreeMap<ProbeId, [u8; 32]> = BTreeMap::new();
        let mut slot_of_cloud: BTreeMap<u32, usize> = BTreeMap::new();
        let mut slots = Vec::new();
        let mut add_slot = |probe_id: ProbeId, slots: &mut Vec<PdpSlot>| {
            probe_mac_keys.insert(probe_id, probe_mac_key(probe_id));
            slots.push(PdpSlot {
                pdp: prp.active().pdp(),
                probe: Probe::new(probe_id, key.clone(), probe_mac_key(probe_id)),
            });
        };
        match spec.placement {
            PdpPlacement::Central => {
                add_slot(ProbeId(0), &mut slots);
                for t in tenants {
                    slot_of_cloud.entry(t.cloud.0).or_insert(0);
                }
            }
            PdpPlacement::PerCloud => {
                let clouds: BTreeSet<u32> = tenants.iter().map(|t| t.cloud.0).collect();
                for cloud in clouds {
                    slot_of_cloud.insert(cloud, slots.len());
                    add_slot(ProbeId(PDP_PROBE_BASE + cloud), &mut slots);
                }
            }
        }
        let pep_probes = (0..tenant_count)
            .map(|i| {
                let id = ProbeId(i as u32 + 1);
                probe_mac_keys.insert(id, probe_mac_key(id));
                Probe::new(id, key.clone(), probe_mac_key(id))
            })
            .collect();
        let lis = (0..=tenant_count)
            .map(|i| {
                let name = format!("li-{i}");
                let mut li = LoggingInterface::new(
                    name.clone(),
                    key.clone(),
                    Keypair::from_seed(name.as_bytes()),
                    config.li_batch_size,
                );
                li.attach_backlog(wal(LI_WAL_SEGMENT));
                if load.li_resident_cap > 0 {
                    li.set_resident_cap(load.li_resident_cap as usize);
                }
                li
            })
            .collect();

        let admin = Keypair::from_seed(b"drams-admin");
        let analyser_kp = Keypair::from_seed(b"drams-analyser");
        let node_wal = Rc::new(RefCell::new(wal(NODE_WAL_SEGMENT)));
        let mut node = Node::new(ChainConfig {
            initial_difficulty_bits: 0,
            retarget_interval: 0,
            max_block_txs: 4096,
            verify_signatures: false,
            ..ChainConfig::default()
        });
        node.register_contract(Box::new(MonitorContract));
        node.set_journal(Box::new(WalJournal::new(node_wal.clone())));
        node.submit_call(
            &admin,
            MONITOR_CONTRACT,
            "init",
            MonitorContract::init_payload(config.group_timeout, analyser_kp.public().fingerprint()),
        )
        .expect("init submission");
        node.mine_block(0).expect("genesis follow-up");
        let event_cursor = node.events().len();
        let mut analyser = Analyser::new(authorised, key, analyser_kp, probe_mac_keys);
        analyser.enable_fork_detection();
        if load.analyser_retire_lag > 0 {
            analyser.enable_group_retirement(load.analyser_retire_lag);
        }
        if load.policy_history_retention > 0 {
            analyser.enable_history_retention(load.policy_history_retention);
        }
        analyser
            .attach_checkpoint(SnapshotStore::new(Box::new(MemBackend::new())))
            .expect("analyser checkpoint");

        Deployment {
            pdp_slot_of_tenant: tenants.iter().map(|t| slot_of_cloud[&t.cloud.0]).collect(),
            load,
            peps,
            pep_probes,
            slots,
            lis,
            node,
            node_wal,
            analyser,
            admin,
            event_cursor,
        }
    }
}

/// What the replay counted: per-layer counts, and the fidelity check's
/// side of the comparison with the untraced run's `MonitorReport`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCounts {
    /// Requests issued.
    pub issued: u64,
    /// Blocks mined.
    pub blocks: u64,
    /// Transactions committed in those blocks.
    pub txs: u64,
    /// Alerts committed on-chain.
    pub alerts: u64,
    /// Chain-journal compactions.
    pub compactions: u64,
    /// LI entries submitted to the chain.
    pub li_entries: u64,
    /// LI transactions submitted.
    pub li_txs: u64,
    /// Groups the Analyser checked.
    pub groups_checked: u64,
    /// Transaction signatures the Analyser audited.
    pub txs_audited: u64,
}

/// A finished replay: its spans and counts.
pub struct Replay {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Per-layer counts and the fidelity check's inputs.
    pub counts: ReplayCounts,
    /// Wall time of the replay itself (seconds).
    pub wall_s: f64,
}

#[derive(Debug)]
enum Msg {
    Arrival,
    Intercept {
        tenant: usize,
        service: String,
        request: Request,
    },
    PepReceive {
        env: ResponseEnvelope,
    },
    PdpReceive {
        slot: usize,
        env: RequestEnvelope,
    },
    LiDeliver {
        li: usize,
        entry: LogEntry,
    },
    LiFlushTick {
        li: usize,
    },
    MineTick,
    AnalyserTick,
}

const SVC_WORKLOAD: usize = 0;
const SVC_PEP: usize = 1;
const SVC_PDP: usize = 2;
const SVC_LI: usize = 3;
const SVC_CHAIN: usize = 4;
const SVC_ANALYSER: usize = 5;

fn route(msg: &Msg) -> usize {
    match msg {
        Msg::Arrival => SVC_WORKLOAD,
        Msg::Intercept { .. } | Msg::PepReceive { .. } => SVC_PEP,
        Msg::PdpReceive { .. } => SVC_PDP,
        Msg::LiDeliver { .. } | Msg::LiFlushTick { .. } => SVC_LI,
        Msg::MineTick => SVC_CHAIN,
        Msg::AnalyserTick => SVC_ANALYSER,
    }
}

struct Ctx<'a> {
    node: Node,
    node_wal: Rc<RefCell<Wal>>,
    adversary: &'a mut CompositeAdversary,
    rngs: RngStreams,
    to_li: LatencyModel,
    pep_pdp: LatencyModel,
    tenants: Vec<TenantSpec>,
    pdp_slot_of_tenant: Vec<usize>,
    tracer: Tracer,
    counts: ReplayCounts,
}

impl Ctx<'_> {
    /// The adversary's log-plane hooks, then delivery to `li`.
    fn deliver_to_li(
        &mut self,
        out: &mut Outbox<Msg>,
        li: usize,
        mut entry: LogEntry,
        now: SimTime,
    ) {
        if self.adversary.drop_log(&entry, now) {
            return;
        }
        self.adversary.replay_log(&mut entry, now);
        self.adversary.tamper_log(&mut entry, now);
        let latency = self.to_li.sample(&mut self.rngs.net);
        out.emit(latency, Msg::LiDeliver { li, entry });
    }

    /// Times one probe observation.
    fn observe(&mut self, key: CorrelationId, observe: impl FnOnce() -> LogEntry) -> LogEntry {
        let start = Instant::now();
        let entry = observe();
        self.tracer.leaf("probe.observe", key.0, start);
        entry
    }
}

struct WorkloadSource {
    total_requests: u64,
    base_rate: f64,
    load: LoadProfile,
    zipf: Option<Zipf>,
    generator: RequestGenerator,
}

impl<'a> SimService<Msg, Ctx<'a>> for WorkloadSource {
    fn handle(&mut self, now: SimTime, _msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        if ctx.counts.issued >= self.total_requests {
            return;
        }
        let opened = ctx.tracer.open("runtime.workload", 0);
        ctx.counts.issued += 1;
        let active = ctx.tenants.len();
        let tenant = match &self.zipf {
            Some(zipf) => zipf.sample(&mut ctx.rngs.population) % active,
            None => ctx.rngs.workload.gen_range(0..active),
        };
        let services = &ctx.tenants[tenant].services;
        let service = services[ctx.rngs.workload.gen_range(0..services.len().max(1))].clone();
        let request = self.generator.next_request();
        out.emit(
            0,
            Msg::Intercept {
                tenant,
                service,
                request,
            },
        );
        if ctx.counts.issued < self.total_requests {
            let rate = self.load.effective_rate(self.base_rate, now);
            let arrivals = PoissonArrivals::with_rate_per_sec(rate);
            out.emit(arrivals.next_gap(&mut ctx.rngs.workload), Msg::Arrival);
        }
        ctx.tracer.close(opened);
    }
}

struct PepService {
    peps: Vec<Pep>,
    probes: Vec<Probe>,
    inflight: HashSet<CorrelationId>,
    inflight_cap: usize,
}

impl<'a> SimService<Msg, Ctx<'a>> for PepService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        let opened = ctx.tracer.open("runtime.pep", 0);
        match msg {
            Msg::Intercept {
                tenant,
                service,
                request,
            } => {
                // At the admission cap the request is shed unseen.
                if self.inflight.len() < self.inflight_cap {
                    let mut env = self.peps[tenant].intercept(service, request, now);
                    let probe = &mut self.probes[tenant];
                    let entry = ctx.observe(env.correlation, || {
                        probe.observe_request(ObservationPoint::PepRequest, &env, now)
                    });
                    ctx.deliver_to_li(out, tenant, entry, now);
                    ctx.adversary.tamper_request_in_transit(&mut env, now);
                    let slot = ctx.pdp_slot_of_tenant[tenant];
                    self.inflight.insert(env.correlation);
                    let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
                    out.emit(latency, Msg::PdpReceive { slot, env });
                }
            }
            Msg::PepReceive { env } => {
                if let Some(tenant) = self.peps.iter().position(|p| p.id() == env.pep) {
                    if let Some(enforcement) = self.peps[tenant].enforce(&env) {
                        self.inflight.remove(&env.correlation);
                        let mut granted = enforcement.granted;
                        ctx.adversary.flip_enforcement(&mut granted, now);
                        let probe = &mut self.probes[tenant];
                        let entry = ctx.observe(env.correlation, || {
                            probe.observe_pep_response(&env, granted, now)
                        });
                        ctx.deliver_to_li(out, tenant, entry, now);
                    }
                }
            }
            _ => unreachable!("misrouted event"),
        }
        ctx.tracer.close(opened);
    }
}

struct PdpService {
    slots: Vec<PdpSlot>,
    infra_li: usize,
}

impl<'a> SimService<Msg, Ctx<'a>> for PdpService {
    fn handle(&mut self, now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        let Msg::PdpReceive { slot, env } = msg else {
            unreachable!("misrouted event")
        };
        let opened = ctx.tracer.open("runtime.pdp", env.correlation.0);
        let s = &mut self.slots[slot];
        let probe = &mut s.probe;
        let entry = ctx.observe(env.correlation, || {
            probe.observe_request(ObservationPoint::PdpRequest, &env, now)
        });
        ctx.deliver_to_li(out, self.infra_li, entry, now);
        let start = Instant::now();
        let response = s.pdp.evaluate(&env.request);
        ctx.tracer.leaf("policy.evaluate", env.correlation.0, start);
        let mut resp_env = ResponseEnvelope {
            correlation: env.correlation,
            pep: env.pep,
            response,
            policy_version: s.pdp.policy_version(),
            decided_at: now,
        };
        ctx.adversary.corrupt_pdp_decision(&mut resp_env, now);
        let entry = ctx.observe(env.correlation, || {
            probe.observe_pdp_response(&resp_env, now)
        });
        ctx.deliver_to_li(out, self.infra_li, entry, now);
        ctx.adversary.tamper_response_in_transit(&mut resp_env, now);
        let latency = ctx.pep_pdp.sample(&mut ctx.rngs.net);
        out.emit(latency, Msg::PepReceive { env: resp_env });
        ctx.tracer.close(opened);
    }
}

struct LiService {
    lis: Vec<LoggingInterface>,
    flush_interval: SimTime,
}

impl<'a> SimService<Msg, Ctx<'a>> for LiService {
    fn handle(&mut self, _now: SimTime, msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        let opened = ctx.tracer.open("runtime.li", 0);
        match msg {
            Msg::LiDeliver { li, entry } => {
                let key = entry.correlation.0;
                let start = Instant::now();
                self.lis[li]
                    .store(entry, &mut ctx.node)
                    .expect("li submission");
                ctx.tracer.leaf("li.store", key, start);
            }
            Msg::LiFlushTick { li } => {
                let start = Instant::now();
                self.lis[li].flush(&mut ctx.node).expect("li flush");
                ctx.tracer.leaf("li.flush", 0, start);
                out.emit(self.flush_interval, Msg::LiFlushTick { li });
            }
            _ => unreachable!("misrouted event"),
        }
        (ctx.counts.li_entries, ctx.counts.li_txs) = self
            .lis
            .iter()
            .map(LoggingInterface::submission_counters)
            .fold((0, 0), |(e, t), (de, dt)| (e + de, t + dt));
        ctx.tracer.close(opened);
    }
}

struct ChainService {
    admin: Keypair,
    epoch_blocks: u64,
    block_interval: SimTime,
    compact_interval: u64,
    event_cursor: usize,
}

impl<'a> SimService<Msg, Ctx<'a>> for ChainService {
    fn handle(&mut self, now: SimTime, _msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        let opened = ctx.tracer.open("runtime.chain", 0);
        let next_height = ctx.node.chain().tip_header().height + 1;
        if self.epoch_blocks > 0 && next_height.is_multiple_of(self.epoch_blocks) {
            ctx.node
                .submit_call(&self.admin, MONITOR_CONTRACT, "advance_epoch", vec![])
                .expect("epoch submission");
        }
        let start = Instant::now();
        let block = ctx.node.mine_block(now).expect("mining");
        ctx.tracer.leaf("chain.mine", 0, start);
        ctx.counts.blocks += 1;
        ctx.counts.txs += block.transactions.len() as u64;
        let (events, cursor) = ctx.node.events_since(self.event_cursor);
        ctx.counts.alerts += events
            .iter()
            .filter(|e| e.name.starts_with("alert."))
            .filter(|e| Alert::from_canonical_bytes(&e.data).is_ok())
            .count() as u64;
        self.event_cursor = cursor;
        if self.compact_interval > 0 && next_height.is_multiple_of(self.compact_interval) {
            let start = Instant::now();
            compact_node_journal(&mut ctx.node_wal.borrow_mut()).expect("chain journal compaction");
            ctx.tracer.leaf("store.compact", 0, start);
            ctx.counts.compactions += 1;
        }
        out.emit(self.block_interval, Msg::MineTick);
        ctx.tracer.close(opened);
    }
}

struct AnalyserService {
    analyser: Analyser,
    poll_interval: SimTime,
}

impl<'a> SimService<Msg, Ctx<'a>> for AnalyserService {
    fn handle(&mut self, now: SimTime, _msg: Msg, ctx: &mut Ctx<'a>, out: &mut Outbox<Msg>) {
        let opened = ctx.tracer.open("runtime.analyser", 0);
        let start = Instant::now();
        let _ = self.analyser.poll(&mut ctx.node, now);
        ctx.tracer.leaf("analyser.poll", 0, start);
        let start = Instant::now();
        self.analyser.checkpoint().expect("analyser checkpoint");
        ctx.tracer.leaf("analyser.checkpoint", 0, start);
        ctx.counts.groups_checked = self.analyser.checked_groups();
        ctx.counts.txs_audited = self.analyser.audited_txs();
        out.emit(self.poll_interval, Msg::AnalyserTick);
        ctx.tracer.close(opened);
    }
}

/// Replays `spec` with `adversary` up to virtual time `until` (the
/// untraced run's `finished_at`), recording a span around every layer
/// call.
pub fn replay(spec: &ScenarioSpec, adversary: &mut CompositeAdversary, until: SimTime) -> Replay {
    let wall = Instant::now();
    let config = &spec.config;
    let d = Deployment::new(spec, adversary);
    let tenant_count = config.federation.tenants.len().max(1);
    let mut ctx = Ctx {
        node: d.node,
        node_wal: d.node_wal,
        adversary,
        rngs: RngStreams::new(config.seed),
        to_li: config.federation.to_logging_interface,
        pep_pdp: match spec.placement {
            PdpPlacement::Central => config.federation.tenant_to_infra,
            PdpPlacement::PerCloud => config.federation.intra_tenant,
        },
        tenants: config.federation.tenants.clone(),
        pdp_slot_of_tenant: d.pdp_slot_of_tenant,
        tracer: Tracer::default(),
        counts: ReplayCounts::default(),
    };
    let mut rt: ServiceRuntime<Msg, Ctx<'_>> = ServiceRuntime::new(route);
    rt.register(Box::new(WorkloadSource {
        total_requests: config.total_requests,
        base_rate: config.request_rate_per_sec,
        zipf: (d.load.population > 0)
            .then(|| Zipf::new(d.load.population as usize, d.load.zipf_exponent)),
        load: d.load.clone(),
        generator: RequestGenerator::new(
            Vocabulary::default(),
            1.1,
            config.seed ^ GENERATOR_SEED_XOR,
        ),
    }));
    rt.register(Box::new(PepService {
        peps: d.peps,
        probes: d.pep_probes,
        inflight: HashSet::new(),
        inflight_cap: match d.load.pep_inflight_cap {
            0 => usize::MAX,
            cap => cap as usize,
        },
    }));
    rt.register(Box::new(PdpService {
        slots: d.slots,
        infra_li: tenant_count,
    }));
    rt.register(Box::new(LiService {
        lis: d.lis,
        flush_interval: config.li_flush_interval,
    }));
    rt.register(Box::new(ChainService {
        admin: d.admin,
        epoch_blocks: config.epoch_blocks,
        block_interval: config.block_interval,
        compact_interval: d.load.chain_compact_interval,
        event_cursor: d.event_cursor,
    }));
    rt.register(Box::new(AnalyserService {
        analyser: d.analyser,
        poll_interval: config.analyser_poll_interval,
    }));

    let first_rate = d.load.effective_rate(config.request_rate_per_sec, 0);
    rt.schedule(
        PoissonArrivals::with_rate_per_sec(first_rate).next_gap(&mut ctx.rngs.workload),
        Msg::Arrival,
    );
    rt.schedule(config.block_interval, Msg::MineTick);
    for li in 0..=tenant_count {
        rt.schedule(config.li_flush_interval, Msg::LiFlushTick { li });
    }
    rt.schedule(config.analyser_poll_interval, Msg::AnalyserTick);
    rt.run(&mut ctx, until);
    drop(rt);
    Replay {
        tracer: ctx.tracer,
        counts: ctx.counts,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

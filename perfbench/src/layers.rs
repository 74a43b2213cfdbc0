//! The traced run: one checked operation, its host time split across the
//! crates from outside the program.
//!
//! No span is added inside the program. The `sim`, `core` and `workload`
//! numbers come from the public `ShardRunReport`, the farm counters and
//! the benchmark's own set-up timing. The `gateway`, `vmm` and `snapshot`
//! numbers come from standalone instances of those crates' public types,
//! sized to the run and timed call by call here; a layer's attributed time
//! is its per-call median times the run's call count. The parts are
//! reported against `replay_s` without being forced to add up.

use std::net::Ipv4Addr;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::Instant;

use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin_gateway::{Gateway, GatewayAction, VmRef};
use potemkin_net::tcp::TcpFlags;
use potemkin_net::{Packet, PacketBuilder, PacketPayload};
use potemkin_sim::rng::SimRng;
use potemkin_sim::SimTime;
use potemkin_snapshot::{write_atomic, SnapshotFile};
use potemkin_vmm::Host;
use potemkin_workload::radiation::RadiationModel;

use crate::measure::{median, percentile, rss_kb, secs, Metrics};
use crate::workloads::{self, Expected, Summary, Workload};
use crate::{
    checkpoint_op, remove_snapshots, snapshot_path, time_setup, CheckpointCheck, CheckpointOp,
    OpReport,
};

/// Set-up repetitions in the traced run.
const SETUP_SAMPLES: usize = 3;
/// Most `apply_request` calls the standalone host times.
const MAX_APPLIES: u64 = 20_000;

fn nanos(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs the traced operation and returns the per-layer metrics.
pub fn run(
    workload: Workload,
    config: &ShardedTelescopeConfig,
    scratch: &Path,
    expected: &mut Expected,
) -> Result<Metrics, String> {
    let mut setup = Vec::new();
    let mut generate = Vec::new();
    let mut packets = 0;
    for _ in 0..SETUP_SAMPLES {
        let (s, g, p) = time_setup(config);
        setup.push(s);
        generate.push(g);
        packets = p;
    }
    let setup_s = median(&mut setup);
    let generate_s = median(&mut generate);

    // The replay itself; on the checkpoint workload also the plain run, so
    // the checkpoint's own cost is the difference of the two.
    let t = Instant::now();
    let plain = run_telescope_sharded(config, 1).map_err(|e| format!("{e:?}"))?;
    let plain_s = secs(t);
    expected.check(Summary::of(&plain))?;
    let (result, replay_s, checkpoint) = if workload.checkpoint {
        let (op, split) = checkpoint_split(config, scratch, plain_s)?;
        let report = OpReport {
            wall_s: op.wall_s,
            summary: Summary::of(&op.run.result),
            checkpoint: Some(op.check),
            failed_share: 0.0,
            peak_rss_kb: 0,
        };
        report.check(expected)?;
        (op.run.result, op.wall_s + op.check.restore_s - setup_s, Some((op.check, split)))
    } else {
        (plain, plain_s - setup_s, None)
    };

    let engine = &result.engine;
    let counters = &result.stats.counters;
    let in_window_s = engine.batches.iter().map(|b| b.elapsed_nanos).sum::<u64>() as f64 / 1e9;
    let queue_high = engine.batches.iter().map(|b| b.queue_depth_high).max().unwrap_or(0);

    let gw = gateway_layer(config, counters.get("worm_probes"));
    let ticks = config.base.duration.as_nanos() / config.base.tick_interval.as_nanos();
    let gateway_s = (gw.inbound_p50 * counters.get("packets_in")
        + gw.outbound_p50 * counters.get("packets_out")
        + gw.expire_p50 * ticks * config.cells as u64) as f64
        / 1e9;

    let live = (result.peak_live_vms / config.cells as f64).ceil().max(1.0) as u64;
    let deliveries = counters.get("packets_to_guests");
    let applies = (deliveries / config.cells as u64).clamp(live, MAX_APPLIES.max(live));
    let vmm = vmm_probe(workload, live, applies, scratch, !workload.checkpoint)?;
    let clones = counters.get("vms_cloned");
    let recycled = counters.get("vms_recycled");
    let churn_s = (vmm.get("clone_p50_ns") * clones as f64
        + vmm.get("destroy_p50_ns") * recycled as f64)
        / 1e9;
    let vmm_s = churn_s + vmm.get("apply_p50_ns") * deliveries as f64 / 1e9;

    let mut m = Metrics::default();
    m.add("workload.generate_s", generate_s, "s");
    m.add("workload.packets", packets as f64, "count");
    m.add("sim.events", engine.total.events_processed as f64, "count");
    m.add("sim.windows", engine.windows as f64, "count");
    m.add("sim.in_window_s", in_window_s, "s");
    m.add("sim.barrier_s", replay_s - in_window_s, "s");
    m.add("sim.remote_messages", engine.remote_messages as f64, "count");
    m.add("sim.queue_depth_high", queue_high as f64, "count");
    m.add("core.packets_in", counters.get("packets_in") as f64, "count");
    m.add("core.worm_probes", counters.get("worm_probes") as f64, "count");
    m.add("core.cross_cell_packets", result.cross_cell_packets as f64, "count");
    m.add("core.unattributed_s", in_window_s - gateway_s - vmm_s, "s");
    m.add("gateway.on_inbound_ns_p50", gw.inbound_p50 as f64, "ns");
    m.add("gateway.on_inbound_ns_p99", gw.inbound_p99 as f64, "ns");
    m.add("gateway.on_outbound_ns_p50", gw.outbound_p50 as f64, "ns");
    m.add("gateway.on_outbound_ns_p99", gw.outbound_p99 as f64, "ns");
    m.add("gateway.expire_ns", gw.expire_p50 as f64, "ns");
    m.add("gateway.bindings_created", counters.get("bindings_created") as f64, "count");
    m.add("gateway.reflected", counters.get("reflected") as f64, "count");
    m.add("gateway.attributed_s", gateway_s, "s");
    m.add("vmm.flash_clone_us_p50", vmm.get("clone_p50_ns") / 1e3, "us");
    m.add("vmm.flash_clone_us_p99", vmm.get("clone_p99_ns") / 1e3, "us");
    m.add("vmm.destroy_us", vmm.get("destroy_p50_ns") / 1e3, "us");
    m.add("vmm.apply_request_us", vmm.get("apply_p50_ns") / 1e3, "us");
    m.add("vmm.clones", clones as f64, "count");
    m.add("vmm.guest_deliveries", deliveries as f64, "count");
    m.add("vmm.host_kb_per_live_domain", vmm.get("host_kb_per_domain"), "kB");
    m.add("vmm.attributed_s", vmm_s, "s");
    let split =
        checkpoint.map_or_else(|| SNAPSHOT_METRICS.map(|name| vmm.get(name)), |(_, split)| split);
    for (name, value) in SNAPSHOT_METRICS.iter().zip(split) {
        m.add(name, value, if name.ends_with("_s") { "s" } else { "count" });
    }

    // The save side is the first three snapshot metrics, the restore side
    // the next three.
    let snapshot_s = split[..6].iter().sum();
    let mut table = m.clone();
    table.add("vmm.recycled", recycled as f64, "count");
    table.add("vmm.guest_memory_errors", counters.get("guest_memory_errors") as f64, "count");
    print_table(
        &table,
        workload,
        replay_s,
        setup_s,
        churn_s,
        checkpoint.map(|(check, _)| (snapshot_s, check)),
    );
    Ok(m)
}

/// The snapshot layer's metrics, in report order.
const SNAPSHOT_METRICS: [&str; 7] = [
    "snapshot.container_encode_s",
    "snapshot.write_s",
    "snapshot.state_encode_s",
    "snapshot.read_s",
    "snapshot.container_decode_s",
    "snapshot.state_restore_s",
    "snapshot.sections",
];

/// The checkpoint workload's operation with its snapshot cost split into
/// container encode, write and state codecs (the remainder of the
/// checkpointed replay over the plain one) on the save side, and read,
/// container decode and state restore on the restore side. Returns the
/// operation and the values of [`SNAPSHOT_METRICS`], in order.
fn checkpoint_split(
    config: &ShardedTelescopeConfig,
    scratch: &Path,
    plain_s: f64,
) -> Result<(CheckpointOp, [f64; 7]), String> {
    let op = checkpoint_op(config, &snapshot_path(scratch))?;
    let t = Instant::now();
    let encoded = op.snapshot.encode();
    let encode_s = secs(t);
    let path = snapshot_path(scratch);
    let t = Instant::now();
    write_atomic(&path, &encoded).map_err(|e| format!("write: {e:?}"))?;
    let write_s = secs(t);
    remove_snapshots(&path);
    let split = [
        encode_s,
        write_s,
        op.wall_s - plain_s - encode_s - write_s,
        op.read_s,
        op.decode_s,
        op.resume_s,
        op.snapshot.section_names().len() as f64,
    ];
    Ok((op, split))
}

/// Per-call timings of a standalone gateway fed the run's traffic.
struct GatewayTimes {
    inbound_p50: u64,
    inbound_p99: u64,
    outbound_p50: u64,
    outbound_p99: u64,
    expire_p50: u64,
}

/// A standalone gateway built from the workload's `GatewayConfig`, fed
/// the workload's trace plus `probes` worm probes spread evenly over the
/// horizon. It binds on first contact, answers delivered SYNs with a
/// guest SYN/ACK through `on_outbound`, re-offers reflections, and expires
/// at the tick cadence.
fn gateway_layer(config: &ShardedTelescopeConfig, probes: u64) -> GatewayTimes {
    let base = &config.base;
    let trace = RadiationModel::new(base.radiation.clone(), base.seed).generate(base.duration);
    let mut feed = GatewayFeed {
        gw: Gateway::new(base.farm.gateway.clone()),
        next_vm: 0,
        sources: Vec::new(),
        inbound: Vec::new(),
        outbound: Vec::new(),
    };
    for i in 0..config.seed_infections {
        let addr = base.radiation.telescope.addr_at(i as u64).expect("telescope address");
        let vm = feed.new_vm();
        feed.gw.bind(SimTime::ZERO, addr, addr, vm);
        feed.sources.push((vm, addr));
    }
    let mut rng = SimRng::seed_from(base.farm.seed);
    let mut expire = Vec::new();
    let mut next_tick = base.tick_interval;
    let mut probe = 0u64;
    let horizon = base.duration.as_nanos();
    let probe_at = |k: u64| SimTime::from_nanos(horizon * (k + 1) / (probes + 1));
    let mut events = trace.into_events().into_iter().peekable();
    loop {
        let next_packet = events.peek().map(|e| e.at);
        let next_probe = (probe < probes).then(|| probe_at(probe));
        let now = match (next_packet, next_probe) {
            (None, None) => break,
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
        };
        while next_tick <= now {
            let t = Instant::now();
            let expired = feed.gw.expire(next_tick);
            expire.push(nanos(t));
            drop(expired);
            next_tick += base.tick_interval;
        }
        if next_probe == Some(now) {
            if let (Some(worm), false) = (&base.farm.worm, feed.sources.is_empty()) {
                let (vm, src) = feed.sources[(probe % feed.sources.len() as u64) as usize];
                if let Some(dst) = worm.pick_target(&mut rng, src, probe) {
                    let packet =
                        worm.probe_instance(src, 1024 + (probe % 60_000) as u16, dst, probe);
                    feed.outbound(now, vm, packet, 0);
                }
            }
            probe += 1;
        } else if let Some(event) = events.next() {
            feed.inbound(now, event.packet, false, 0);
        }
    }
    GatewayTimes {
        inbound_p50: percentile(&mut feed.inbound, 0.5),
        inbound_p99: percentile(&mut feed.inbound, 0.99),
        outbound_p50: percentile(&mut feed.outbound, 0.5),
        outbound_p99: percentile(&mut feed.outbound, 0.99),
        expire_p50: percentile(&mut expire, 0.5),
    }
}

struct GatewayFeed {
    gw: Gateway,
    next_vm: u64,
    /// Bound VMs that scan: the seed infections and every VM a reflected
    /// probe reached.
    sources: Vec<(VmRef, Ipv4Addr)>,
    inbound: Vec<u64>,
    outbound: Vec<u64>,
}

/// Deepest causal chain the feed follows (probe, reflection, re-offer,
/// reply).
const MAX_DEPTH: u32 = 8;

impl GatewayFeed {
    fn new_vm(&mut self) -> VmRef {
        self.next_vm += 1;
        VmRef(self.next_vm)
    }

    fn inbound(&mut self, now: SimTime, packet: Packet, reflected: bool, depth: u32) {
        if depth > MAX_DEPTH {
            return;
        }
        let t = Instant::now();
        let action = self.gw.on_inbound(now, packet);
        self.inbound.push(nanos(t));
        match action {
            GatewayAction::CloneAndDeliver { addr, packet } => {
                let vm = self.new_vm();
                self.gw.bind(now, packet.src(), addr, vm);
                if reflected {
                    self.sources.push((vm, addr));
                }
                self.inbound(now, packet, false, depth + 1);
            }
            GatewayAction::Deliver { vm, packet } => {
                if let PacketPayload::Tcp { header, .. } = packet.payload() {
                    if header.flags.syn && !header.flags.ack {
                        let reply = PacketBuilder::new(packet.dst(), packet.src()).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::SYN_ACK,
                            0,
                            header.seq.wrapping_add(1),
                            &[],
                        );
                        self.outbound(now, vm, reply, depth + 1);
                    }
                }
            }
            _ => {}
        }
    }

    fn outbound(&mut self, now: SimTime, vm: VmRef, packet: Packet, depth: u32) {
        let t = Instant::now();
        let action = self.gw.on_outbound(now, vm, packet);
        self.outbound.push(nanos(t));
        if let GatewayAction::Reflect { packet, .. } = action {
            self.inbound(now, packet, true, depth + 1);
        }
    }
}

/// Values a `--vmm-probe` child reports, by name.
struct Probe(Vec<(String, f64)>);

impl Probe {
    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }
}

/// Runs the standalone host in a fresh process of this binary, so its
/// resident-set growth is the host's own and not memory the replay freed.
fn vmm_probe(
    workload: Workload,
    live: u64,
    applies: u64,
    scratch: &Path,
    snapshot: bool,
) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("--vmm-probe")
        .arg(workload.name)
        .arg(live.to_string())
        .arg(applies.to_string())
        .arg(if snapshot { "1" } else { "0" })
        .arg(scratch)
        .output()
        .map_err(|e| format!("vmm probe: {e}"))?;
    if !out.status.success() {
        return Err(format!("vmm probe failed: {}", String::from_utf8_lossy(&out.stderr)));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(Probe(
        text.lines()
            .filter_map(|l| {
                let (name, value) = l.split_once('=')?;
                Some((name.to_string(), value.parse().ok()?))
            })
            .collect(),
    ))
}

/// The child side of [`vmm_probe`]: a standalone `Host` with the farm's
/// geometry, grown to `live` domains, `applies` requests applied round
/// robin, then (optionally) its state checkpointed and restored through
/// the snapshot container, then every domain destroyed.
pub fn vmm_probe_child(args: &[String]) -> ExitCode {
    let parsed = (|| {
        let workload = workloads::find(args.first()?)?;
        let live: u64 = args.get(1)?.parse().ok()?;
        let applies: u64 = args.get(2)?.parse().ok()?;
        let snapshot = args.get(3)? == "1";
        let scratch = Path::new(args.get(4)?);
        Some((workload, live, applies, snapshot, scratch))
    })();
    let Some((workload, live, applies, snapshot, scratch)) = parsed else {
        eprintln!("usage: --vmm-probe <workload> <live> <applies> <0|1> <scratch>");
        return ExitCode::from(2);
    };
    match vmm_probe_inner(workload, live, applies, snapshot, scratch) {
        Ok(lines) => {
            for (name, value) in lines {
                println!("{name}={value:?}");
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

fn vmm_probe_inner(
    workload: Workload,
    live: u64,
    applies: u64,
    snapshot: bool,
    scratch: &Path,
) -> Result<Vec<(&'static str, f64)>, String> {
    let farm = workload.config(workloads::DEFAULT_SEED, SimTime::from_secs(1)).base.farm;
    let new_host = || {
        let mut host = Host::new(farm.frames_per_server)
            .with_cost_model(farm.cost_model)
            .with_overhead_pages(farm.overhead_pages)
            .with_max_domains(farm.max_domains_per_server)
            .with_disk_chunk_blocks(farm.disk_chunk_blocks);
        let image = host.create_reference_image("reference", farm.profile.clone());
        image.map(|image| (host, image)).map_err(|e| format!("reference image: {e:?}"))
    };
    let rss_before = rss_kb();
    let (mut host, image) = new_host()?;
    let mut clone_ns = Vec::new();
    let mut domains = Vec::new();
    for _ in 0..live {
        let t = Instant::now();
        let (dom, _) = host.flash_clone(image).map_err(|e| format!("flash_clone: {e:?}"))?;
        clone_ns.push(nanos(t));
        domains.push(dom);
    }
    let mut apply_ns = Vec::new();
    for i in 0..applies {
        let dom = domains[(i % live) as usize];
        let t = Instant::now();
        host.apply_request(dom, i).map_err(|e| format!("apply_request: {e:?}"))?;
        apply_ns.push(nanos(t));
    }
    let host_kb = rss_kb().saturating_sub(rss_before) as f64 / live as f64;
    let mut out = Vec::new();
    if snapshot {
        let path = snapshot_path(scratch);
        let t = Instant::now();
        let state = host.encode_state();
        let state_encode_s = secs(t);
        let mut file = SnapshotFile::new(0);
        file.push("vmm.host", state);
        let t = Instant::now();
        let bytes = file.encode();
        let container_encode_s = secs(t);
        let t = Instant::now();
        write_atomic(&path, &bytes).map_err(|e| format!("write: {e:?}"))?;
        let write_s = secs(t);
        drop(bytes);
        let t = Instant::now();
        let read = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
        let read_s = secs(t);
        remove_snapshots(&path);
        let t = Instant::now();
        let decoded = SnapshotFile::decode(&read).map_err(|e| format!("decode: {e:?}"))?;
        let container_decode_s = secs(t);
        let (mut restored, _) = new_host()?;
        let t = Instant::now();
        let section = decoded.section("vmm.host").map_err(|e| format!("section: {e:?}"))?;
        restored.restore_state(section).map_err(|e| format!("restore_state: {e:?}"))?;
        let state_restore_s = secs(t);
        if restored.live_domains() != host.live_domains() {
            return Err("restored host lost domains".to_string());
        }
        let split = [
            container_encode_s,
            write_s,
            state_encode_s,
            read_s,
            container_decode_s,
            state_restore_s,
            decoded.section_names().len() as f64,
        ];
        out.extend(SNAPSHOT_METRICS.into_iter().zip(split));
    }
    let mut destroy_ns = Vec::new();
    for dom in domains {
        let t = Instant::now();
        host.destroy(dom).map_err(|e| format!("destroy: {e:?}"))?;
        destroy_ns.push(nanos(t));
    }
    out.extend([
        ("clone_p50_ns", percentile(&mut clone_ns, 0.5) as f64),
        ("clone_p99_ns", percentile(&mut clone_ns, 0.99) as f64),
        ("destroy_p50_ns", percentile(&mut destroy_ns, 0.5) as f64),
        ("apply_p50_ns", percentile(&mut apply_ns, 0.5) as f64),
        ("host_kb_per_domain", host_kb),
    ]);
    Ok(out)
}

fn share(part: f64, whole: f64) -> String {
    format!("{:>6.1}%", 100.0 * part / whole)
}

/// The per-layer table: each layer's attributed time and its share of
/// `replay_s`, plus the churn and snapshot shares the workload is sized
/// around. `m` may hold more rows than the result line: counts that are 0
/// on the gated workloads print here only.
fn print_table(
    m: &Metrics,
    workload: Workload,
    replay_s: f64,
    setup_s: f64,
    churn_s: f64,
    checkpoint: Option<(f64, CheckpointCheck)>,
) {
    let get = |name: &str| m.get(name).unwrap_or(0.0);
    println!("{}", m.table(&format!("per layer: {}", workload.name)));
    println!("layer split of replay_s = {replay_s:.3} s (set-up {setup_s:.3} s not included)");
    let rows = [
        ("sim (barriers, outside windows)", get("sim.barrier_s")),
        ("gateway (attributed)", get("gateway.attributed_s")),
        ("vmm (attributed)", get("vmm.attributed_s")),
        ("core (in-window, unattributed)", get("core.unattributed_s")),
    ];
    for (name, s) in rows {
        println!("  {name:<34} {s:>10.3} s {}", share(s, replay_s));
    }
    println!("  {:<34} {churn_s:>10.3} s {}", "vmm clone+destroy", share(churn_s, replay_s));
    if let Some((snapshot_s, check)) = checkpoint {
        println!(
            "  {:<34} {snapshot_s:>10.3} s {}",
            "snapshot save + restore",
            share(snapshot_s, replay_s)
        );
        println!(
            "restore_s {:.3} s (included in replay_s), checkpoint {:.1} MB",
            check.restore_s,
            check.bytes as f64 / 1e6
        );
    }
}

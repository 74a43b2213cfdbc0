//! The repository benchmark.
//!
//! ```text
//! potemkin-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                    [--sim-ms <ms>] [--expect-digest <hex>] [--scratch <dir>]
//! potemkin-perfbench --calibrate
//! ```
//!
//! `--trace 0` times whole operations of the workload for `--seconds`
//! seconds and reports the end-to-end metrics as medians. `--trace 1` runs
//! one operation and splits its host time across the crates, timing calls
//! into each crate's public functions from here (see `layers`). Both print
//! a table and then, as the last line, one JSON object. Every operation
//! passes the correctness gate (`workloads::Expected`) or counts as failed
//! and contributes no timing; a run with a failed operation exits 1.
//! Operations run in child processes of this binary (`--op`; `--setup`
//! times set-up, `--vmm-probe` runs the standalone host), so each one's
//! peak resident set is its own.

mod layers;
mod measure;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use potemkin_core::checkpoint::{
    resume_telescope_checkpointed, run_telescope_checkpointed, CheckpointOptions, CheckpointedRun,
};
use potemkin_core::farm::Honeyfarm;
use potemkin_core::parallel::{
    derive_cell_seed, run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_sim::SimTime;
use potemkin_snapshot::SnapshotFile;
use potemkin_workload::radiation::RadiationModel;

use measure::{median, peak_rss_kb, secs, Metrics};
use workloads::{input_seed, Expected, Summary, Workload, DEFAULT_SEED, INPUTS_PER_RUN};

/// Set-up is timed this many times in a fresh process before each
/// operation. One process's median differs from the next by up to half, so
/// the run reports the median over these processes.
const SETUP_SAMPLES_PER_OP: usize = 15;
/// Fewest timed operations a run reports a median over: every input at
/// least once.
const MIN_OPS: usize = INPUTS_PER_RUN;
/// No new operation starts after this much wall time, so a run always
/// exits well inside its 180 s limit.
const OP_DEADLINE: Duration = Duration::from_secs(120);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    horizon: SimTime,
    /// What each input of the run must reproduce, in `input_seed` order.
    expected: [Expected; INPUTS_PER_RUN],
    scratch: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: potemkin-perfbench --workload <worm_outbreak|scan_churn|checkpoint_restore> \
         --seed <n> --seconds <s> --trace <0|1> [--sim-ms <ms>] [--expect-digest <hex>] \
         [--scratch <dir>] | --calibrate"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--").ok_or_else(|| format!("unexpected argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(name.to_string(), value);
    }
    let take = |name: &str| flags.get(name).map(String::as_str);
    let num = |name: &str| -> Result<Option<u64>, String> {
        take(name)
            .map(|v| v.parse::<u64>().map_err(|_| format!("--{name}: bad number {v}")))
            .transpose()
    };
    let name = take("workload").ok_or("--workload is required")?;
    let workload = workloads::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = num("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 =
        take("seconds").unwrap_or("10").parse().map_err(|_| "--seconds: bad number".to_string())?;
    let trace = match take("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let horizon_ms = num("sim-ms")?.unwrap_or(workload.horizon_ms);
    // The pinned values hold only for the default seed and horizon; any
    // other run checks that its operations agree with each other.
    let pinned = seed == DEFAULT_SEED && horizon_ms == workload.horizon_ms;
    let mut expected = [Expected::default(); INPUTS_PER_RUN];
    if pinned {
        for (e, &(events, digest)) in expected.iter_mut().zip(&workload.pinned) {
            *e = Expected { events: Some(events), digest: Some(digest) };
        }
    }
    // An explicit digest describes the run's own seed, its first input.
    if let Some(hex) = take("expect-digest") {
        let digest =
            u64::from_str_radix(hex, 16).map_err(|_| format!("--expect-digest: bad hex {hex}"))?;
        expected[0].digest = Some(digest);
    }
    for known in flags.keys() {
        if !["workload", "seed", "seconds", "trace", "sim-ms", "expect-digest", "scratch"]
            .contains(&known.as_str())
        {
            return Err(format!("unknown flag --{known}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        horizon: SimTime::from_millis(horizon_ms),
        expected,
        scratch: PathBuf::from(take("scratch").unwrap_or(".bench_scratch")),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--calibrate") {
        println!("{}", measure::calibrate());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("--op") {
        return op_child(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("--setup") {
        return setup_child(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("--vmm-probe") {
        return layers::vmm_probe_child(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    if let Err(e) = std::fs::create_dir_all(&args.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", args.scratch.display());
        return ExitCode::FAILURE;
    }
    let config = args.workload.config(args.seed, args.horizon);
    println!(
        "perfbench: workload {} seed {} horizon {} ms, {} cells, 1 engine worker",
        args.workload.name,
        args.seed,
        args.horizon.as_millis(),
        config.cells
    );
    let outcome = if args.trace { traced_run(&args, &config) } else { timed_run(&args) };
    let _ = std::fs::remove_dir_all(&args.scratch);
    println!("{}", outcome.json());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What a run prints as its last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

impl Outcome {
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            self.metrics.json()
        )
    }
}

/// One set-up as the program does it before the first event: generate the
/// radiation trace, then build one farm per cell.
fn time_setup(config: &ShardedTelescopeConfig) -> (f64, f64, u64) {
    let start = Instant::now();
    let trace = RadiationModel::new(config.base.radiation.clone(), config.base.seed)
        .generate(config.base.duration);
    let generate_s = secs(start);
    let template = Arc::new(config.base.farm.clone());
    let farms: Vec<Honeyfarm> = (0..config.cells)
        .map(|cell| {
            Honeyfarm::with_shared_config(
                Arc::clone(&template),
                derive_cell_seed(template.seed, cell),
            )
            .expect("fixed farm config builds")
        })
        .collect();
    let setup_s = secs(start);
    drop(farms);
    (setup_s, generate_s, trace.len() as u64)
}

/// Checkpoint files live in the scratch directory and are removed after
/// each operation.
fn snapshot_path(scratch: &Path) -> PathBuf {
    scratch.join("checkpoint.snap")
}

fn remove_snapshots(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut prev = path.as_os_str().to_owned();
    prev.push(".prev");
    let _ = std::fs::remove_file(PathBuf::from(prev));
}

/// Windows the run executes; the final barrier closes the last of them.
fn windows(config: &ShardedTelescopeConfig) -> u64 {
    config.base.duration.as_nanos().div_ceil(config.window.as_nanos())
}

/// The checkpoint side of an operation.
#[derive(Clone, Copy, Debug, Default)]
struct CheckpointCheck {
    written: u64,
    skipped: u64,
    resumed_digest: u64,
    bytes: u64,
    restore_s: f64,
}

/// One operation as its process reports it.
#[derive(Clone, Copy, Debug)]
struct OpReport {
    /// Wall time of the replay call; on the checkpoint workload, of the
    /// checkpointed replay plus the restore (read, decode, resume).
    wall_s: f64,
    summary: Summary,
    checkpoint: Option<CheckpointCheck>,
    failed_share: f64,
    peak_rss_kb: u64,
}

impl OpReport {
    /// The gate: the replay checks, plus on the checkpoint workload one
    /// write, none skipped, and a resume that reproduces the digest.
    fn check(&self, expected: &mut Expected) -> Result<(), String> {
        expected.check(self.summary)?;
        if let Some(c) = self.checkpoint {
            if c.written != 1 || c.skipped != 0 {
                return Err(format!(
                    "checkpoints written {} skipped {} (want 1, 0)",
                    c.written, c.skipped
                ));
            }
            if c.resumed_digest != self.summary.digest {
                return Err(format!(
                    "resumed digest {:016x} != uninterrupted {:016x}",
                    c.resumed_digest, self.summary.digest
                ));
            }
        }
        Ok(())
    }

    fn lines(&self) -> String {
        let c = self.checkpoint.unwrap_or_default();
        format!(
            "wall_s={}\nevents={}\ndigest={}\nescaped={}\ncheckpoint={}\nwritten={}\nskipped={}\n\
             resumed_digest={}\nbytes={}\nrestore_s={}\nfailed_share={}\npeak_rss_kb={}",
            self.wall_s,
            self.summary.events,
            self.summary.digest,
            self.summary.escaped,
            u8::from(self.checkpoint.is_some()),
            c.written,
            c.skipped,
            c.resumed_digest,
            c.bytes,
            c.restore_s,
            self.failed_share,
            self.peak_rss_kb
        )
    }

    fn parse(text: &str) -> Option<OpReport> {
        let fields: BTreeMap<&str, &str> = text.lines().filter_map(|l| l.split_once('=')).collect();
        let int = |k: &str| fields.get(k)?.parse::<u64>().ok();
        let real = |k: &str| fields.get(k)?.parse::<f64>().ok();
        let checkpoint = match int("checkpoint")? {
            0 => None,
            _ => Some(CheckpointCheck {
                written: int("written")?,
                skipped: int("skipped")?,
                resumed_digest: int("resumed_digest")?,
                bytes: int("bytes")?,
                restore_s: real("restore_s")?,
            }),
        };
        Some(OpReport {
            wall_s: real("wall_s")?,
            summary: Summary {
                events: int("events")?,
                digest: int("digest")?,
                escaped: int("escaped")?,
            },
            checkpoint,
            failed_share: real("failed_share")?,
            peak_rss_kb: int("peak_rss_kb")?,
        })
    }
}

fn failed_share(result: &ShardedTelescopeResult) -> f64 {
    let c = &result.stats.counters;
    let failed = c.get("dropped_no_capacity") + c.get("guest_memory_errors");
    failed as f64 / c.get("packets_in").max(1) as f64
}

/// One checkpointed operation: the replay with a single checkpoint at the
/// final barrier, then the restore: read, verify, resume to the horizon.
struct CheckpointOp {
    run: CheckpointedRun,
    /// Wall time of the checkpointed replay.
    wall_s: f64,
    check: CheckpointCheck,
    /// The snapshot as read back and verified.
    snapshot: SnapshotFile,
    /// The parts of `check.restore_s`: file read, container decode with
    /// its integrity checks, and the resume.
    read_s: f64,
    decode_s: f64,
    resume_s: f64,
}

fn checkpoint_op(config: &ShardedTelescopeConfig, path: &Path) -> Result<CheckpointOp, String> {
    let mut options = CheckpointOptions::new(path);
    options.every_windows = windows(config);
    let t = Instant::now();
    let run = run_telescope_checkpointed(config, 1, &options).map_err(|e| format!("{e:?}"))?;
    let wall_s = secs(t);
    let t = Instant::now();
    let bytes = std::fs::read(path).map_err(|e| format!("read: {e}"))?;
    let read_s = secs(t);
    let t = Instant::now();
    let snapshot = SnapshotFile::decode(&bytes).map_err(|e| format!("decode: {e:?}"))?;
    let decode_s = secs(t);
    drop(bytes);
    options.every_windows = 0;
    let t = Instant::now();
    let resumed = resume_telescope_checkpointed(config, 1, &snapshot, &options)
        .map_err(|e| format!("resume: {e:?}"))?;
    let resume_s = secs(t);
    remove_snapshots(path);
    let check = CheckpointCheck {
        written: run.checkpoints.written,
        skipped: run.checkpoints.skipped,
        resumed_digest: workloads::digest(&resumed.result),
        bytes: run.checkpoints.last_snapshot_bytes,
        restore_s: read_s + decode_s + resume_s,
    };
    Ok(CheckpointOp { run, wall_s, check, snapshot, read_s, decode_s, resume_s })
}

/// The arguments of both child modes: `<workload> <seed> <horizon-ms>
/// <scratch>`.
fn child_args(argv: &[String]) -> Option<(Workload, ShardedTelescopeConfig, PathBuf)> {
    let workload = workloads::find(argv.first()?)?;
    let seed: u64 = argv.get(1)?.parse().ok()?;
    let horizon_ms: u64 = argv.get(2)?.parse().ok()?;
    let config = workload.config(seed, SimTime::from_millis(horizon_ms));
    Some((workload, config, PathBuf::from(argv.get(3)?)))
}

fn child_usage(mode: &str) -> ExitCode {
    eprintln!("usage: {mode} <workload> <seed> <horizon-ms> <scratch>");
    ExitCode::from(2)
}

/// `--setup`: set-up timed [`SETUP_SAMPLES_PER_OP`] times in this fresh
/// process; prints the median.
fn setup_child(argv: &[String]) -> ExitCode {
    let Some((_, config, _)) = child_args(argv) else {
        return child_usage("--setup");
    };
    let mut samples: Vec<f64> = (0..SETUP_SAMPLES_PER_OP).map(|_| time_setup(&config).0).collect();
    println!("{:?}", median(&mut samples));
    ExitCode::SUCCESS
}

/// `--op`: one operation in this fresh process, reported on stdout.
fn op_child(argv: &[String]) -> ExitCode {
    let Some((workload, config, scratch)) = child_args(argv) else {
        return child_usage("--op");
    };
    let op = if workload.checkpoint {
        checkpoint_op(&config, &snapshot_path(&scratch))
            .map(|op| (op.run.result, op.wall_s + op.check.restore_s, Some(op.check)))
    } else {
        let start = Instant::now();
        run_telescope_sharded(&config, 1)
            .map(|result| (result, secs(start), None))
            .map_err(|e| format!("{e:?}"))
    };
    match op {
        Ok((result, wall_s, checkpoint)) => {
            let report = OpReport {
                wall_s,
                summary: Summary::of(&result),
                checkpoint,
                failed_share: failed_share(&result),
                peak_rss_kb: peak_rss_kb(),
            };
            println!("{}", report.lines());
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}

/// Runs this binary in `mode` (`--op` or `--setup`) on one input as a
/// child process and returns what it printed.
fn run_child(mode: &str, args: &Args, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(mode)
        .arg(args.workload.name)
        .arg(seed.to_string())
        .arg(args.horizon.as_millis().to_string())
        .arg(&args.scratch)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!("{mode} failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Times set-up in a fresh process, then runs one operation in another,
/// so the peak resident set the operation reports is its own.
fn spawn_op(args: &Args, seed: u64) -> Result<(f64, OpReport), String> {
    let setup = run_child("--setup", args, seed)?;
    let setup_s = setup.trim().parse().map_err(|_| "unreadable set-up report".to_string())?;
    let op = OpReport::parse(&run_child("--op", args, seed)?)
        .ok_or_else(|| "unreadable operation report".to_string())?;
    Ok((setup_s, op))
}

/// `--trace 0`: whole operations, each in its own process and timed from
/// outside the program, for `--seconds`; medians are reported.
fn timed_run(args: &Args) -> Outcome {
    let mut expected = args.expected;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup, mut ops, mut rss, mut restore) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last: Option<OpReport> = None;
    let start = Instant::now();
    while ops.len() < MIN_OPS || secs(start) < args.seconds {
        if start.elapsed() > OP_DEADLINE {
            break;
        }
        attempted += 1;
        let k = (attempted - 1) as usize % INPUTS_PER_RUN;
        let op = spawn_op(args, input_seed(args.seed, k));
        match op.and_then(|(setup_s, op)| op.check(&mut expected[k]).map(|()| (setup_s, op))) {
            Ok((setup_s, op)) => {
                setup.push(setup_s);
                ops.push((op.wall_s, op.summary.events));
                rss.push(op.peak_rss_kb as f64 * 1024.0 / 1e6);
                if let Some(c) = op.checkpoint {
                    restore.push(c.restore_s);
                }
                last = Some(op);
            }
            Err(why) => {
                failed += 1;
                println!("FAILED operation {attempted}: {why}");
                remove_snapshots(&snapshot_path(&args.scratch));
                break;
            }
        }
    }
    println!("operations: {} timed, {} failed", ops.len(), failed);
    for (k, e) in expected.iter().enumerate() {
        let (events, digest) = (e.events.unwrap_or(0), e.digest.unwrap_or(0));
        println!("  input seed {}: events {events} digest {digest:016x}", input_seed(args.seed, k));
    }
    let mut metrics = Metrics::default();
    let Some(last) = last else {
        return Outcome { attempted, failed, metrics };
    };
    let setup_s = median(&mut setup);
    // An operation's wall time less set-up: from the first dispatched event
    // to the assembled result (and, on the checkpoint workload, through the
    // restore).
    let mut replay: Vec<f64> = ops.iter().map(|&(wall_s, _)| wall_s - setup_s).collect();
    let mut rate: Vec<f64> =
        ops.iter().map(|&(wall_s, events)| events as f64 / (wall_s - setup_s)).collect();
    println!("replay_s samples: {}", measure::list(&replay));
    metrics.add("replay_s", median(&mut replay), "s");
    metrics.add("events_per_s", median(&mut rate), "1/s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", median(&mut rss), "MB");
    let mut table = metrics.clone();
    table.add("failed_share", last.failed_share, "share");
    if let Some(c) = last.checkpoint {
        table.add("restore_s", median(&mut restore), "s");
        table.add("checkpoint_mb", c.bytes as f64 / 1e6, "MB");
    }
    println!("{}", table.table(&format!("end to end: {}", args.workload.name)));
    Outcome { attempted, failed, metrics }
}

/// `--trace 1`: one checked operation, split across the crates.
fn traced_run(args: &Args, config: &ShardedTelescopeConfig) -> Outcome {
    let mut expected = args.expected[0];
    match layers::run(args.workload, config, &args.scratch, &mut expected) {
        Ok(metrics) => Outcome { attempted: 1, failed: 0, metrics },
        Err(why) => {
            println!("FAILED operation 1: {why}");
            remove_snapshots(&snapshot_path(&args.scratch));
            Outcome { attempted: 1, failed: 1, metrics: Metrics::default() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_operation_report_survives_its_text_form() {
        let check = CheckpointCheck {
            written: 1,
            skipped: 0,
            resumed_digest: u64::MAX,
            bytes: 7,
            restore_s: 0.5,
        };
        let op = OpReport {
            wall_s: 1.5,
            summary: Summary { events: 3, digest: u64::MAX, escaped: 0 },
            checkpoint: Some(check),
            failed_share: 0.25,
            peak_rss_kb: 1024,
        };
        let back = OpReport::parse(&op.lines()).expect("parses");
        assert_eq!(back.summary, op.summary);
        assert_eq!(back.wall_s, 1.5);
        assert_eq!(back.checkpoint.map(|c| (c.resumed_digest, c.bytes)), Some((u64::MAX, 7)));
        assert!(back.check(&mut Expected::default()).is_ok());
        let plain = OpReport { checkpoint: None, ..op };
        assert!(OpReport::parse(&plain.lines()).expect("parses").checkpoint.is_none());
        assert!(OpReport::parse("wall_s=1").is_none());
    }

    #[test]
    fn the_checkpoint_gate_wants_one_write_and_a_matching_resume() {
        let good =
            CheckpointCheck { written: 1, skipped: 0, resumed_digest: 9, bytes: 1, restore_s: 0.1 };
        let op = |c| OpReport {
            wall_s: 1.0,
            summary: Summary { events: 1, digest: 9, escaped: 0 },
            checkpoint: Some(c),
            failed_share: 0.0,
            peak_rss_kb: 1,
        };
        assert!(op(good).check(&mut Expected::default()).is_ok());
        let skipped = CheckpointCheck { skipped: 1, ..good };
        assert!(op(skipped).check(&mut Expected::default()).is_err());
        let diverged = CheckpointCheck { resumed_digest: 8, ..good };
        assert!(op(diverged).check(&mut Expected::default()).unwrap_err().contains("resumed"));
    }
}

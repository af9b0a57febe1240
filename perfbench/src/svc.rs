//! The `svc-mixed` workload against the real `etrain-svcd` binary, and
//! the traced run over an in-process twin built from public calls.
//!
//! The workload runs in rounds. Each round writes the first
//! `PRELOAD_STEPS` commands of a seeded script into a fresh journal
//! in-process, starts the daemon on it (set-up: spawn, replay, `READY`,
//! connect), replays the rest of the script on a writer connection for
//! a fixed share of the run while a reader connection polls
//! STATS/HEALTH/FPRINT, SIGKILLs the daemon and restarts it on the same
//! journal (recovery). Every round starts from a journal and state of
//! the same size, so a run's figures do not depend on how long it ran or
//! on how fast acks are.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use etrain_core::CoreConfig;
use etrain_svc::script::{script, ScriptStep};
use etrain_svc::{
    execute_line, recover, DurableService, ServiceState, SvcCommand, SvcHealthConfig, Wal,
    WalConfig,
};

use crate::out::{median, peak_rss_mb, quantile, Metrics, Outcome};

/// Script commands journaled before the daemon starts (after the
/// three-line prologue); set-up and recovery both replay them.
const PRELOAD_STEPS: usize = 10_000;
/// Script commands the writer may send per round.
const WRITE_STEPS: usize = 2_000;
/// Each round's writer phase lasts at most this share of `--seconds`.
const WRITE_SHARE: f64 = 1.0 / 8.0;
/// PINGs, and idle reads, per traced round.
const LIVE_CALLS: usize = 30;
/// One SUBMIT in this many (seeded) is re-sent and must answer `DUP`.
const DUP_ONE_IN: u64 = 20;
/// Daemon starts per round on the preloaded journal (set-up), and
/// restarts after the SIGKILL (recovery).
const STARTS_PER_ROUND: usize = 3;
/// How long a reply may take before it counts as a timeout.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// The reader's verbs, polled in turn.
const READ_VERBS: [&str; 3] = ["STATS", "HEALTH", "FPRINT"];

fn splitmix(x: u64) -> u64 {
    etrain_fleet::device_seed(x, 0)
}

/// The script seed of round `round` of a run with seed `seed`.
fn round_seed(seed: u64, round: u64) -> u64 {
    splitmix(seed ^ splitmix(round.wrapping_add(0x5bc)))
}

/// One round's inputs and what the in-process reference says about them.
struct Plan {
    /// The journaled prefix: the prologue and `PRELOAD_STEPS` commands.
    preload: Vec<SvcCommand>,
    /// Every command line the writer may send, re-sends included.
    lines: Vec<String>,
    /// The matching commands (a re-send repeats its SUBMIT).
    commands: Vec<SvcCommand>,
    /// The reference's reply to each line.
    expected: Vec<String>,
    /// Writer lines where the two references disagree: an ERR on one
    /// side only, or a different error.
    disagreements: u64,
}

impl Plan {
    /// The fingerprint of a bare `ServiceState` fed the preload and the
    /// first `sent` writer commands (a re-sent SUBMIT changes nothing).
    fn fingerprint_after(&self, sent: usize) -> u64 {
        let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
        for command in self.preload.iter().chain(&self.commands[..sent]) {
            let _ = state.apply(command);
        }
        state.fingerprint()
    }
}

fn fresh_dir(path: &Path) -> Result<PathBuf, String> {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    Ok(path.to_path_buf())
}

fn open_service(dir: &Path, fsync: bool) -> Result<DurableService, String> {
    let mut cfg = WalConfig::new(dir);
    cfg.fsync = fsync;
    DurableService::open(cfg, CoreConfig::default(), SvcHealthConfig::default())
        .map(|(service, _)| service)
        .map_err(|e| format!("open service at {}: {e}", dir.display()))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fresh_dir(to)?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("list {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}

/// Builds round `round`'s plan and journals its preload into `journal`
/// through an in-process `DurableService` (fsync off). The writer's
/// expected replies come from a second in-process service recovered
/// from a copy of that journal (same protocol code as the daemon, no
/// socket); every ERR it gives must also be the error a bare
/// `ServiceState` returns for that command.
fn plan(seed: u64, round: u64, journal: &Path, scratch: &Path) -> Result<Plan, String> {
    let rseed = round_seed(seed, round);
    let mut steps: Vec<ScriptStep> = script(rseed, PRELOAD_STEPS + WRITE_STEPS);
    let writes = steps.split_off(steps.len() - WRITE_STEPS);
    let preload: Vec<SvcCommand> = steps.into_iter().map(|step| step.command).collect();

    let mut service = open_service(&fresh_dir(journal)?, false)?;
    let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    for command in &preload {
        let _ = service.apply(command.clone());
        let _ = state.apply(command);
    }
    drop(service);
    let reference_dir = scratch.join("reference");
    copy_dir(journal, &reference_dir)?;
    let service = Mutex::new(open_service(&reference_dir, false)?);

    let mut plan = Plan {
        preload,
        lines: Vec::new(),
        commands: Vec::new(),
        expected: Vec::new(),
        disagreements: 0,
    };
    for (i, step) in writes.into_iter().enumerate() {
        let reply = execute_line(&step.line, &service);
        match state.apply(&step.command) {
            Ok(_) => plan.disagreements += u64::from(reply.starts_with("ERR")),
            Err(e) => plan.disagreements += u64::from(reply != format!("ERR {e}")),
        }
        let resend = matches!(step.command, SvcCommand::SubmitIdem { .. })
            && splitmix(rseed ^ i as u64).is_multiple_of(DUP_ONE_IN);
        plan.lines.push(step.line.clone());
        plan.commands.push(step.command.clone());
        plan.expected.push(reply);
        if resend {
            plan.expected.push(execute_line(&step.line, &service));
            plan.lines.push(step.line);
            plan.commands.push(step.command);
        }
    }
    drop(service);
    let _ = std::fs::remove_dir_all(&reference_dir);
    Ok(plan)
}

fn check_references(outcome: &mut Outcome, disagreements: u64) {
    outcome.check(
        "svc.reference_errors_equal_state_errors",
        disagreements == 0,
        format!("{disagreements} disagreements between execute_line and ServiceState"),
    );
}

/// A running daemon; dropping it SIGKILLs it and waits for it to end.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Starts the daemon on `wal_dir` and waits for its `READY` line.
    fn spawn(bin: &Path, wal_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .env("ETRAIN_WAL", wal_dir)
            .env("ETRAIN_SVC_ADDR", "127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().ok_or("daemon stdout not captured")?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stdout: BufReader::new(stdout),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = daemon
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("read daemon stdout: {e}"))?;
            if n == 0 {
                return Err("daemon exited before READY".to_owned());
            }
            if let Some(addr) = line.trim().strip_prefix("READY ") {
                daemon.addr = addr.to_owned();
                return Ok(daemon);
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

/// One client connection; whole lines are written in one call, so Nagle
/// is off on the client side.
struct Conn {
    reader: BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
    reply: String,
}

impl Conn {
    fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let setup = |s: &std::net::TcpStream| -> std::io::Result<()> {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(REPLY_TIMEOUT))?;
            s.set_write_timeout(Some(REPLY_TIMEOUT))
        };
        setup(&stream).map_err(|e| format!("configure socket: {e}"))?;
        let reader = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(reader),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Sends one line and returns the reply; an error is a timeout or a
    /// reset (the connection is then unusable).
    fn call(&mut self, line: &str) -> std::io::Result<&str> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }
}

fn daemon_bin() -> Result<PathBuf, String> {
    etrain_chaos::daemon_binary()
        .ok_or_else(|| "etrain-svcd not found next to the benchmark binary".to_owned())
}

fn scratch_dir() -> Result<PathBuf, String> {
    fresh_dir(&PathBuf::from(".bench_work").join(format!("svc-{}", std::process::id())))
}

/// Samples gathered over a run's rounds.
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    rss_mb: Vec<f64>,
    write_us: Vec<f64>,
    read_us: Vec<f64>,
    writer_s: f64,
    writes: u64,
    reads: u64,
    failures: u64,
    rounds: u64,
    /// Writer replies that are the script's deterministic ERRs, and
    /// SUBMITs answered as duplicates.
    script_errors: u64,
    dup_answers: u64,
    submits: u64,
    /// Per output check: failing rounds and the first failure's detail.
    replies: (u64, String),
    final_fprint: (u64, String),
    recovered_fprint: (u64, String),
}

fn note(check: &mut (u64, String), detail: impl FnOnce() -> String) {
    if check.0 == 0 {
        check.1 = detail();
    }
    check.0 += 1;
}

fn fprint_line(fingerprint: u64) -> String {
    format!("OK FPRINT {fingerprint:016x}")
}

/// One round against the real daemon on `journal`, which holds the
/// plan's preload (see the module docs).
fn round(
    bin: &Path,
    journal: &Path,
    plan: &Plan,
    write_budget_s: f64,
    s: &mut Samples,
) -> Result<(), String> {
    let (daemon, mut writer, mut reader) = loop {
        let start = Instant::now();
        let daemon = Daemon::spawn(bin, journal)?;
        let writer = Conn::connect(&daemon.addr)?;
        let reader = Conn::connect(&daemon.addr)?;
        s.setup_s.push(start.elapsed().as_secs_f64());
        if s.setup_s.len().is_multiple_of(STARTS_PER_ROUND) {
            break (daemon, writer, reader);
        }
    };

    let done = AtomicBool::new(false);
    let mut write_us = Vec::with_capacity(plan.lines.len());
    let mut mismatched = Vec::new();
    let mut first_reply = String::new();
    let mut writer_failed = false;
    let (read_us, read_failures, writer_s) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| {
            let mut lat = Vec::new();
            let mut failures = 0u64;
            'poll: while !done.load(Ordering::Acquire) {
                for verb in READ_VERBS {
                    let t = Instant::now();
                    match reader.call(verb) {
                        Ok(reply) if reply.starts_with(&format!("OK {verb} ")) => {
                            lat.push(t.elapsed().as_secs_f64() * 1e6)
                        }
                        Ok(_) => failures += 1,
                        Err(_) => {
                            failures += 1;
                            break 'poll;
                        }
                    }
                }
            }
            (lat, failures)
        });
        let begin = Instant::now();
        for (i, line) in plan.lines.iter().enumerate() {
            if begin.elapsed().as_secs_f64() >= write_budget_s {
                break;
            }
            let t = Instant::now();
            match writer.call(line) {
                Ok(reply) => {
                    write_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if reply != plan.expected[i] {
                        if mismatched.is_empty() {
                            first_reply = reply.to_owned();
                        }
                        mismatched.push(i);
                    }
                }
                Err(_) => {
                    writer_failed = true;
                    break;
                }
            }
        }
        let writer_s = begin.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
        let (lat, failures) = poller.join().expect("reader thread panicked");
        (lat, failures, writer_s)
    });

    let acked = write_us.len();
    s.writes += acked as u64 + u64::from(writer_failed);
    for (line, reply) in plan.lines.iter().zip(&plan.expected).take(acked) {
        s.script_errors += u64::from(reply.starts_with("ERR"));
        s.dup_answers += u64::from(reply.starts_with("OK DUP"));
        s.submits += u64::from(line.starts_with("SUBMIT"));
    }
    s.reads += read_us.len() as u64 + read_failures;
    s.failures += mismatched.len() as u64 + u64::from(writer_failed) + read_failures;
    s.writer_s += writer_s;
    s.write_us.extend(write_us);
    s.read_us.extend(read_us);
    if let Some(&i) = mismatched.first() {
        let round = s.rounds;
        note(&mut s.replies, || {
            format!(
                "round {round}: {} replies differ; first: {:?} answered {first_reply:?}, reference {:?}",
                mismatched.len(),
                plan.lines[i],
                plan.expected[i]
            )
        });
    }

    let before = writer
        .call("FPRINT")
        .map(str::to_owned)
        .unwrap_or_else(|e| format!("error: {e}"));
    let reference = plan.fingerprint_after(acked);
    if before != fprint_line(reference) {
        let round = s.rounds;
        note(&mut s.final_fprint, || {
            format!("round {round}: daemon {before:?}, reference {reference:016x}")
        });
    }
    s.rss_mb.push(peak_rss_mb(Some(daemon.pid()))?);
    drop(writer);
    drop(reader);
    drop(daemon);

    let mut recovered = Vec::with_capacity(STARTS_PER_ROUND);
    for _ in 0..STARTS_PER_ROUND {
        let start = Instant::now();
        let daemon = Daemon::spawn(bin, journal)?;
        s.recovery_s.push(start.elapsed().as_secs_f64());
        recovered.push(
            Conn::connect(&daemon.addr)?
                .call("FPRINT")
                .map(str::to_owned)
                .unwrap_or_else(|e| format!("error: {e}")),
        );
    }
    if let Some(after) = recovered.iter().find(|after| **after != before) {
        let round = s.rounds;
        note(&mut s.recovered_fprint, || {
            format!("round {round}: before kill {before:?}, after recovery {after:?}")
        });
    }
    let _ = std::fs::remove_dir_all(journal);
    s.rounds += 1;
    Ok(())
}

/// The untraced `svc-mixed` run: rounds until `seconds` have passed.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let bin = daemon_bin()?;
    let scratch = scratch_dir()?;
    let mut s = Samples::default();
    let mut disagreements = 0u64;
    let journal = scratch.join("journal");
    let start = Instant::now();
    let result = (|| {
        while start.elapsed().as_secs_f64() < seconds || s.rounds == 0 {
            let plan = plan(seed, s.rounds, &journal, &scratch)?;
            disagreements += plan.disagreements;
            round(&bin, &journal, &plan, seconds * WRITE_SHARE, &mut s)?;
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    for (name, (bad, detail)) in [
        ("svc.replies_equal_reference", &s.replies),
        ("svc.final_fprint_equals_reference", &s.final_fprint),
        ("svc.recovered_fprint_equals_pre_kill", &s.recovered_fprint),
    ] {
        let detail = if *bad == 0 {
            format!("{} rounds", s.rounds)
        } else {
            format!("{bad} of {} rounds; {detail}", s.rounds)
        };
        outcome.check(name, *bad == 0, detail);
    }
    check_references(&mut outcome, disagreements);

    outcome.attempted = s.writes + s.reads;
    outcome.failed = s.failures;
    let cmds_per_s = s.writes as f64 / s.writer_s;
    let write_p50 = median(&mut s.write_us);
    let write_p99 = quantile(&mut s.write_us, 0.99);
    let read_p50 = median(&mut s.read_us);
    let read_p99 = quantile(&mut s.read_us, 0.99);
    let setup_s = median(&mut s.setup_s);
    // The fastest restart, as for the fleet's batches: replay is
    // CPU-bound, and its median moves with the host's load.
    let recovery_s = quantile(&mut s.recovery_s, 0.0);
    let recovery_p50 = median(&mut s.recovery_s);
    let rss = median(&mut s.rss_mb);

    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("throughput_per_s", cmds_per_s, "1/s");
    m.set("latency_us", write_p50, "us");
    m.set("read_us", read_p50, "us");
    m.set("recovery_s", recovery_s, "s");

    let n = &mut outcome.named;
    n.set("setup_s", setup_s, "s");
    n.set("peak_rss_mb", rss, "MB");
    n.set(
        "failed_ratio",
        s.failures as f64 / outcome.attempted as f64,
        "ratio",
    );
    n.set("cmds_per_s", cmds_per_s, "1/s");
    n.set("ack_write_p50_us", write_p50, "us");
    n.set("ack_write_p99_us", write_p99, "us");
    n.set("ack_read_p50_us", read_p50, "us");
    n.set("ack_read_p99_us", read_p99, "us");
    n.set("recovery_s", recovery_s, "s");
    n.set("recovery_s_median", recovery_p50, "s");
    n.set("rounds", s.rounds as f64, "count");
    n.set("writes", s.writes as f64, "count");
    n.set("reads", s.reads as f64, "count");
    n.set(
        "script_err_ratio",
        s.script_errors as f64 / s.writes as f64,
        "ratio",
    );
    n.set(
        "dedup_hit_ratio",
        s.dup_answers as f64 / s.submits as f64,
        "ratio",
    );
    Ok(outcome)
}

/// Per-layer samples of the traced run.
#[derive(Default)]
struct Traced {
    dedup_us: Vec<f64>,
    append_us: Vec<f64>,
    fsync_us: Vec<f64>,
    apply_us: Vec<f64>,
    execute_us: Vec<f64>,
    execute_write_us: Vec<f64>,
    execute_read_us: Vec<f64>,
    ping_us: Vec<f64>,
    idle_read_us: Vec<f64>,
    twin_s: f64,
    durable_s: f64,
    commands: u64,
    errors: u64,
    submits: u64,
    dups: u64,
    wal_bytes: u64,
    wal_records: u64,
    scan_s: f64,
    replay_s: f64,
    recovered: u64,
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        if name.to_string_lossy().ends_with(".seg") {
            total += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(total)
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The in-process twin of a daemon started on the preloaded journal in
/// `dir`: recovery split into the journal scan (`recover`) and the
/// replay into a fresh state, then each writer command one layer per
/// call — dedup lookup, WAL append (fsync off), WAL sync, state apply.
fn twin_round(plan: &Plan, dir: &Path, t: &mut Traced) -> Result<u64, String> {
    let t0 = Instant::now();
    let recovered = recover(dir).map_err(|e| format!("recover {}: {e}", dir.display()))?;
    t.scan_s += t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut state = ServiceState::new(CoreConfig::default(), SvcHealthConfig::default());
    for command in &recovered.commands {
        let _ = state.apply(command);
    }
    t.replay_s += t0.elapsed().as_secs_f64();
    t.recovered += recovered.commands.len() as u64;

    let mut cfg = WalConfig::new(dir);
    cfg.fsync = false;
    let mut wal = Wal::open(cfg, &recovered).map_err(|e| format!("open WAL: {e}"))?;
    let records_before = wal.records();
    let bytes_before = dir_bytes(dir)?;
    let begin = Instant::now();
    for command in &plan.commands {
        if let SvcCommand::SubmitIdem { client_id, .. } = command {
            t.submits += 1;
            let t0 = Instant::now();
            let cached = state.cached_submission(client_id);
            t.dedup_us.push(us_since(t0));
            if cached.is_some() {
                t.dups += 1;
                continue;
            }
        }
        let t0 = Instant::now();
        wal.append(command).map_err(|e| format!("append: {e}"))?;
        let t1 = Instant::now();
        wal.sync().map_err(|e| format!("sync: {e}"))?;
        let t2 = Instant::now();
        let applied = state.apply(command);
        let t3 = Instant::now();
        t.append_us.push((t1 - t0).as_secs_f64() * 1e6);
        t.fsync_us.push((t2 - t1).as_secs_f64() * 1e6);
        t.apply_us.push((t3 - t2).as_secs_f64() * 1e6);
        t.errors += u64::from(applied.is_err());
    }
    t.twin_s += begin.elapsed().as_secs_f64();
    t.wal_records += wal.records() - records_before;
    drop(wal);
    t.wal_bytes += dir_bytes(dir)? - bytes_before;
    Ok(state.fingerprint())
}

/// The untraced comparator: the same commands through
/// `DurableService::apply` with fsync on, from the same preload.
fn durable_round(plan: &Plan, dir: &Path, t: &mut Traced) -> Result<u64, String> {
    let mut service = open_service(dir, true)?;
    let begin = Instant::now();
    for command in &plan.commands {
        let _ = service.apply(command.clone());
    }
    t.durable_s += begin.elapsed().as_secs_f64();
    Ok(service.fingerprint())
}

/// `execute_line` per verb on an in-process service (fsync off, so the
/// figure is parse, dispatch, dedup, append, apply and format).
fn execute_round(plan: &Plan, dir: &Path, t: &mut Traced) -> Result<(), String> {
    let service = Mutex::new(open_service(dir, false)?);
    for (i, line) in plan.lines.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(execute_line(line, &service));
        let us = us_since(t0);
        t.execute_us.push(us);
        t.execute_write_us.push(us);
        if i % 100 == 0 {
            for verb in READ_VERBS {
                let t0 = Instant::now();
                std::hint::black_box(execute_line(verb, &service));
                let us = us_since(t0);
                t.execute_us.push(us);
                t.execute_read_us.push(us);
            }
        }
    }
    Ok(())
}

/// PING round trips, then reads with no writer running, against a live
/// daemon started on the preloaded journal.
fn live_round(bin: &Path, dir: &Path, t: &mut Traced) -> Result<(), String> {
    let daemon = Daemon::spawn(bin, dir)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    for _ in 0..LIVE_CALLS {
        let t0 = Instant::now();
        let reply = conn.call("PING").map_err(|e| format!("PING: {e}"))?;
        if reply != "OK PONG" {
            return Err(format!("PING answered {reply:?}"));
        }
        t.ping_us.push(us_since(t0));
    }
    for verb in READ_VERBS.iter().cycle().take(LIVE_CALLS) {
        let t0 = Instant::now();
        conn.call(verb).map_err(|e| format!("{verb}: {e}"))?;
        t.idle_read_us.push(us_since(t0));
    }
    Ok(())
}

/// The traced half for the daemon's layers (see `main::traced`).
pub fn run_traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let bin = daemon_bin()?;
    let scratch = scratch_dir()?;
    let mut t = Traced::default();
    let mut rounds = 0u64;
    let mut differing = Vec::new();
    let mut disagreements = 0u64;
    let journal = scratch.join("journal");
    let start = Instant::now();
    let result = (|| {
        while start.elapsed().as_secs_f64() < seconds || rounds == 0 {
            let plan = plan(seed, rounds, &journal, &scratch)?;
            disagreements += plan.disagreements;
            let twin_dir = scratch.join("twin");
            copy_dir(&journal, &twin_dir)?;
            let durable_dir = scratch.join("durable");
            copy_dir(&journal, &durable_dir)?;
            // Alternate which side runs first, so host drift within a
            // round does not land on one side of the overhead.
            let (twin, durable) = if rounds.is_multiple_of(2) {
                let twin = twin_round(&plan, &twin_dir, &mut t)?;
                (twin, durable_round(&plan, &durable_dir, &mut t)?)
            } else {
                let durable = durable_round(&plan, &durable_dir, &mut t)?;
                (twin_round(&plan, &twin_dir, &mut t)?, durable)
            };
            let execute_dir = scratch.join("execute");
            copy_dir(&journal, &execute_dir)?;
            execute_round(&plan, &execute_dir, &mut t)?;
            live_round(&bin, &journal, &mut t)?;
            if twin != durable || durable != plan.fingerprint_after(plan.commands.len()) {
                differing.push(rounds);
            }
            t.commands += plan.commands.len() as u64;
            rounds += 1;
        }
        Ok::<(), String>(())
    })();
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    outcome.attempted = t.commands;
    outcome.failed = differing.len() as u64 * (t.commands / rounds);
    outcome.check(
        "svc.twin_equals_durable_service",
        differing.is_empty(),
        format!("{rounds} rounds; twin, DurableService and ServiceState fingerprints differ in rounds {differing:?}"),
    );
    check_references(&mut outcome, disagreements);
    let twin_cmds_per_s = t.commands as f64 / t.twin_s;
    let durable_cmds_per_s = t.commands as f64 / t.durable_s;
    let m: &mut Metrics = &mut outcome.metrics;
    m.set("svc.dedup_us", median(&mut t.dedup_us), "us");
    m.set("wal.append_us", median(&mut t.append_us), "us");
    m.set("wal.fsync_us", median(&mut t.fsync_us), "us");
    m.set("svc.apply_us", median(&mut t.apply_us), "us");
    m.set("svc.execute_line_us", median(&mut t.execute_us), "us");
    m.set("net.ping_rtt_us", median(&mut t.ping_us), "us");
    m.set(
        "svc.read_ack_idle_p50_us",
        median(&mut t.idle_read_us),
        "us",
    );
    m.set(
        "wal.bytes_per_record",
        t.wal_bytes as f64 / t.wal_records as f64,
        "B",
    );
    m.set(
        "svc.err_ratio",
        t.errors as f64 / (t.commands - t.dups) as f64,
        "ratio",
    );
    m.set(
        "svc.dedup_hit_ratio",
        t.dups as f64 / t.submits as f64,
        "ratio",
    );
    m.set(
        "wal.recover_scan_us_per_record",
        t.scan_s * 1e6 / t.recovered as f64,
        "us",
    );
    m.set(
        "svc.replay_us_per_record",
        t.replay_s * 1e6 / t.recovered as f64,
        "us",
    );
    m.set("tracing.svc_untraced_cmds_per_s", durable_cmds_per_s, "1/s");
    m.set("tracing.svc_traced_cmds_per_s", twin_cmds_per_s, "1/s");
    m.set(
        "tracing.svc_overhead_cmds_per_s",
        durable_cmds_per_s - twin_cmds_per_s,
        "1/s",
    );
    let n = &mut outcome.named;
    n.set("svc_traced_rounds", rounds as f64, "count");
    n.set(
        "execute_line_write_us",
        median(&mut t.execute_write_us),
        "us",
    );
    n.set("execute_line_read_us", median(&mut t.execute_read_us), "us");
    Ok(outcome)
}

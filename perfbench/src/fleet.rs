//! The fleet workloads: `run_fleet` on one worker over a fixed fleet,
//! timed batch by batch, and a traced run that drives the same
//! composition `run_fleet` uses from public calls, one layer at a time.

use std::hint::black_box;
use std::time::Instant;

use etrain_fleet::{run_fleet, FleetColumns, FleetConfig, FleetResult, FleetTally};
use etrain_radio::RadioParams;
use etrain_sched::RetryPolicy;
use etrain_sim::{Engine, EngineKind, RunReport, SchedulerKind};
use etrain_trace::bandwidth::BandwidthTrace;
use etrain_trace::faults::FaultPlan;
use etrain_trace::heartbeats::{synthesize_into, Heartbeat, TrainAppSpec};
use etrain_trace::packets::Packet;

use crate::out::{median, peak_rss_mb, quantile, Outcome};
use crate::Workload;

/// Devices in one batch; every batch of a run is the fleet `(seed, N)`.
pub const FLEET_DEVICES: u64 = 1024;
/// Set-ups per run, one before the timed loop and the rest spread
/// through it (their median is reported).
const SETUP_REPEATS: usize = 9;
/// Devices per run checked against their single-device reference runs.
const SAMPLE_DEVICES: usize = 8;
/// Seeds `0..PIN_SEEDS` have their fleet tally pinned in `pins.txt`.
const PIN_SEEDS: u64 = 256;

const PINS: &str = include_str!("../pins.txt");

/// The run's fleet, with every knob that could change what is timed
/// pinned explicitly: one worker, one shard, the event kernel and the
/// cached decision path.
fn config(workload: Workload, seed: u64) -> FleetConfig {
    let scheduler = match workload {
        Workload::FleetBaseline => SchedulerKind::Baseline,
        _ => SchedulerKind::ETrain {
            theta: 20.0,
            k: Some(20),
        },
    };
    let mut config = FleetConfig::paper_default(FLEET_DEVICES)
        .seed(seed)
        .scheduler(scheduler)
        .shard_devices(FLEET_DEVICES as usize)
        .jobs(1);
    config.engine = EngineKind::Event;
    config.reference_cost = false;
    config
}

fn pin_name(workload: Workload) -> &'static str {
    match workload {
        Workload::FleetBaseline => "baseline",
        _ => "etrain",
    }
}

/// FNV-1a over every field of the tally, floats by their bits.
fn tally_hash(tally: &FleetTally) -> u64 {
    let words = [
        tally.devices,
        tally.packets_completed,
        tally.packets_unfinished,
        tally.heartbeats_sent,
        tally.extra_energy_j.to_bits(),
        tally.total_energy_j.to_bits(),
        tally.delay_sum_s.to_bits(),
        tally.min_extra_j.to_bits(),
        tally.max_extra_j.to_bits(),
    ];
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn pinned(workload: Workload, seed: u64) -> Option<u64> {
    let name = pin_name(workload);
    PINS.lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (w, s, h) = (fields.next()?, fields.next()?, fields.next()?);
            (w == name && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(h, 16).ok())
                .flatten()
        })
}

/// Prints `pins.txt`: the tally hash of every pinned `(seed, N)` fleet.
pub fn print_pins() {
    println!("# <scheduler> <seed> <FNV-1a of the fleet tally>, fleet of {FLEET_DEVICES} devices");
    for workload in [Workload::FleetETrain, Workload::FleetBaseline] {
        for seed in 0..PIN_SEEDS {
            let tally = run_fleet(&config(workload, seed)).fleet;
            println!("{} {seed} {:016x}", pin_name(workload), tally_hash(&tally));
        }
    }
}

/// Checks a seeded sample of rows against single-device reference runs.
fn check_sample(config: &FleetConfig, columns: &FleetColumns, seed: u64, outcome: &mut Outcome) {
    let mut state = seed ^ 0x5eed_5a4d_1e00_0000;
    let mut bad = Vec::new();
    for _ in 0..SAMPLE_DEVICES {
        state = etrain_fleet::device_seed(state, 0);
        let device = state % config.devices;
        let spec = config.device_spec(device);
        let report = config.reference_scenario(&spec).run();
        let mut row = FleetColumns::with_capacity(1);
        row.push_report(spec.class, &report);
        let i = device as usize;
        let same = columns.class[i] == row.class[0]
            && columns.extra_energy_j[i].to_bits() == row.extra_energy_j[0].to_bits()
            && columns.total_energy_j[i].to_bits() == row.total_energy_j[0].to_bits()
            && columns.normalized_delay_s[i].to_bits() == row.normalized_delay_s[0].to_bits()
            && columns.packets_completed[i] == row.packets_completed[0]
            && columns.packets_unfinished[i] == row.packets_unfinished[0]
            && columns.heartbeats_sent[i] == row.heartbeats_sent[0];
        if !same {
            bad.push(device);
        }
    }
    outcome.failed += bad.len() as u64;
    outcome.check(
        "fleet.sample_equals_reference_scenario",
        bad.is_empty(),
        format!("{SAMPLE_DEVICES} sampled devices, mismatched: {bad:?}"),
    );
}

/// The untraced run: set-up, then batches until `seconds` have passed.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };

    // Set-up: build and validate the config, then run its first batch.
    // The first set-up's result is the one every later batch must
    // reproduce; the other set-ups are spread through the run, so their
    // median does not hang on the host's state in the process's first
    // milliseconds.
    let set_up = || -> Result<(f64, FleetResult), String> {
        let start = Instant::now();
        let config = config(workload, seed);
        config.validate()?;
        let result = run_fleet(&config);
        Ok((start.elapsed().as_secs_f64(), result))
    };
    let (first_s, first) = set_up()?;
    let mut setup = vec![first_s];
    let config = config(workload, seed);
    let pin = pinned(workload, seed);
    let expected = pin.unwrap_or_else(|| tally_hash(&first.fleet));
    outcome.check(
        "fleet.tally_pinned",
        tally_hash(&first.fleet) == expected,
        match pin {
            Some(pin) => format!("tally of (seed {seed}, N {FLEET_DEVICES}) against pins.txt {pin:016x}"),
            None => format!("seed {seed} is not pinned (pins cover 0..{PIN_SEEDS}); batches checked against the first"),
        },
    );
    check_sample(&config, &first.columns, seed, &mut outcome);

    let mut batch_s = Vec::new();
    let mut read_us = Vec::new();
    let mut mismatched = 0u64;
    let setup_every = seconds / SETUP_REPEATS as f64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || batch_s.is_empty() {
        if start.elapsed().as_secs_f64() >= setup_every * setup.len() as f64 {
            let (setup_s, result) = set_up()?;
            setup.push(setup_s);
            mismatched += u64::from(tally_hash(&result.fleet) != expected);
            continue;
        }
        let t = Instant::now();
        let result = run_fleet(black_box(&config));
        batch_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let snapshot = black_box(result.snapshot());
        read_us.push(t.elapsed().as_secs_f64() * 1e6);
        mismatched += u64::from(tally_hash(&snapshot.fleet) != expected);
    }
    let batches = batch_s.len() as u64;
    outcome.attempted += (batches + setup.len() as u64) * FLEET_DEVICES;
    outcome.failed += mismatched * FLEET_DEVICES;
    outcome.check(
        "fleet.every_batch_tally_equal",
        mismatched == 0,
        format!(
            "{mismatched} of {} batches differ",
            batches + setup.len() as u64
        ),
    );

    // The gated figures come from the fastest batch: on a shared host the
    // batch median moves with neighbours' load (18 % spread across runs),
    // the fastest of ~10^3 batches much less (7 %); see the README.
    let batch_best = quantile(&mut batch_s, 0.0);
    let batch_p50 = median(&mut batch_s);
    let read_best = quantile(&mut read_us, 0.0);
    let read_p50 = median(&mut read_us);
    let read_p99 = quantile(&mut read_us, 0.99);
    let devices_per_s = FLEET_DEVICES as f64 / batch_best;
    let device_us = batch_best * 1e6 / FLEET_DEVICES as f64;
    let setup_s = median(&mut setup);
    let rss = peak_rss_mb(None)?;

    let m = &mut outcome.metrics;
    m.set("setup_s", setup_s, "s");
    m.set("peak_rss_mb", rss, "MB");
    m.set("throughput_per_s", devices_per_s, "1/s");
    m.set("latency_us", device_us, "us");
    m.set("read_us", read_best, "us");
    m.set("recovery_s", batch_best, "s");

    let n = &mut outcome.named;
    n.set("setup_s", setup_s, "s");
    n.set("peak_rss_mb", rss, "MB");
    n.set(
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted as f64,
        "ratio",
    );
    n.set("devices_per_s", devices_per_s, "1/s");
    n.set(
        "devices_per_s_batch_median",
        FLEET_DEVICES as f64 / batch_p50,
        "1/s",
    );
    n.set("batches", batches as f64, "count");
    n.set("device_us_best_batch", device_us, "us");
    n.set("snapshot_us_best", read_best, "us");
    n.set("snapshot_us_p50", read_p50, "us");
    n.set("snapshot_us_p99", read_p99, "us");
    n.set("batch_recompute_s_best", batch_best, "s");
    Ok(outcome)
}

/// Per-layer sums over one traced batch.
#[derive(Default)]
struct Layers {
    devices: u64,
    synth_s: f64,
    build_s: f64,
    engine_s: f64,
    report_s: f64,
    tally_s: f64,
    step_calls: u64,
    events: u64,
    useful: u64,
    transmissions: u64,
    promotions: u64,
}

/// One batch through the composition `run_fleet` uses, timing each
/// layer's calls: trace synthesis, scheduler build, engine stepping,
/// report, and column push plus tally.
fn traced_batch(config: &FleetConfig, layers: &mut Layers) -> (FleetColumns, FleetTally) {
    let trains = TrainAppSpec::paper_trio();
    let radio = RadioParams::galaxy_s4_3g();
    let bandwidth = BandwidthTrace::constant(config.bandwidth_bps);
    let faults = FaultPlan::none();
    let retry = RetryPolicy::default();
    let profiles = config.profiles();
    let horizon_s = config.session_secs as f64;
    let mut packets: Vec<Packet> = Vec::new();
    let mut heartbeats: Vec<Heartbeat> = Vec::new();
    let mut columns = FleetColumns::with_capacity(config.devices as usize);
    for device in 0..config.devices {
        let t0 = Instant::now();
        let spec = config.device_spec(device);
        config.device_packets_into(&spec, &mut packets);
        synthesize_into(
            &trains,
            horizon_s,
            spec.seed.wrapping_add(1),
            &mut heartbeats,
        );
        let t1 = Instant::now();
        let mut scheduler = config.scheduler.build(profiles.clone());
        scheduler.set_reference_decisions(config.reference_cost);
        let t2 = Instant::now();
        let mut engine = Engine::new(
            scheduler.as_mut(),
            &packets,
            &heartbeats,
            &bandwidth,
            &radio,
            horizon_s,
            &faults,
            &retry,
            None,
        )
        .with_kind(config.engine);
        let mut calls = 1u64;
        while engine.step() {
            calls += 1;
        }
        let output = engine.finish();
        let t3 = Instant::now();
        let report = RunReport::from_engine(scheduler.name(), &output, &profiles);
        let t4 = Instant::now();
        columns.push_report(spec.class, &report);
        let t5 = Instant::now();
        layers.synth_s += (t1 - t0).as_secs_f64();
        layers.build_s += (t2 - t1).as_secs_f64();
        layers.engine_s += (t3 - t2).as_secs_f64();
        layers.report_s += (t4 - t3).as_secs_f64();
        layers.tally_s += (t5 - t4).as_secs_f64();
        layers.step_calls += calls;
        layers.events += output.events_processed;
        layers.useful += (output.completed.len() + output.heartbeats_sent) as u64;
        layers.transmissions += output.transmissions.len() as u64;
        layers.promotions += output.promotions as u64;
    }
    let t = Instant::now();
    let tally = columns.tally();
    layers.tally_s += t.elapsed().as_secs_f64();
    layers.devices += config.devices;
    (columns, tally)
}

/// The traced run: traced and untraced batches alternate, so the
/// tracing overhead is measured under the same host conditions; every
/// traced batch must reproduce `run_fleet`'s columns bit for bit.
pub fn run_traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let config = config(workload, seed);
    config.validate()?;
    let reference = run_fleet(&config);
    let mut layers = Layers::default();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut differing = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || traced_s.is_empty() {
        let t = Instant::now();
        black_box(run_fleet(black_box(&config)));
        untraced_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (columns, tally) = traced_batch(&config, &mut layers);
        traced_s.push(t.elapsed().as_secs_f64());
        if columns != reference.columns || tally_hash(&tally) != tally_hash(&reference.fleet) {
            differing += 1;
        }
    }
    let batches = traced_s.len() as u64;
    outcome.attempted += (2 * batches + 1) * FLEET_DEVICES;
    outcome.failed += differing * FLEET_DEVICES;
    outcome.check(
        "fleet.traced_composition_equals_run_fleet",
        differing == 0,
        format!("{differing} of {batches} traced batches differ from run_fleet's columns"),
    );

    let per_device = |s: f64| s * 1e6 / layers.devices as f64;
    let per_device_count = |c: u64| c as f64 / layers.devices as f64;
    let untraced = FLEET_DEVICES as f64 / quantile(&mut untraced_s, 0.0);
    let traced = FLEET_DEVICES as f64 / quantile(&mut traced_s, 0.0);
    let m = &mut outcome.metrics;
    m.set(
        "trace.synth_us_per_device",
        per_device(layers.synth_s),
        "us",
    );
    m.set(
        "sched.build_us_per_device",
        per_device(layers.build_s),
        "us",
    );
    m.set("engine.us_per_device", per_device(layers.engine_s), "us");
    m.set(
        "engine.step_calls_per_device",
        per_device_count(layers.step_calls),
        "count",
    );
    m.set(
        "engine.us_per_step_call",
        layers.engine_s * 1e6 / layers.step_calls as f64,
        "us",
    );
    m.set(
        "engine.useful_call_ratio",
        layers.useful as f64 / layers.step_calls as f64,
        "ratio",
    );
    m.set("report.us_per_device", per_device(layers.report_s), "us");
    m.set("tally.us_per_device", per_device(layers.tally_s), "us");
    m.set(
        "engine.events_per_device",
        per_device_count(layers.events),
        "count",
    );
    m.set(
        "radio.transmissions_per_device",
        per_device_count(layers.transmissions),
        "count",
    );
    m.set(
        "radio.promotions_per_device",
        per_device_count(layers.promotions),
        "count",
    );
    m.set("tracing.fleet_untraced_devices_per_s", untraced, "1/s");
    m.set("tracing.fleet_traced_devices_per_s", traced, "1/s");
    m.set(
        "tracing.fleet_overhead_devices_per_s",
        untraced - traced,
        "1/s",
    );
    outcome
        .named
        .set("fleet_traced_batches", batches as f64, "count");
    Ok(outcome)
}

//! The repository benchmark: three closed-loop workloads over the two
//! end-to-end paths (the fleet simulator and the durable daemon), an
//! untraced run that prints end-to-end metrics, and a traced run that
//! times the calls into each layer from outside the program.
//!
//! ```text
//! etrain-perfbench --workload <fleet-etrain|fleet-baseline|svc-mixed>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the machine, both reference seeds, the path-specific metric
//! names and the output checks. See `perfbench/README.md` for why each
//! workload and metric exists.

mod fleet;
mod out;
mod svc;

use std::process::ExitCode;

use out::Outcome;

/// The seed the committed baseline is measured on.
pub const BASELINE_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming later claims.
pub const HELD_OUT_SEED: u64 = 211;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's eTrain fleet (Θ = 20, k = 20) on one worker.
    FleetETrain,
    /// The same population under the send-immediately baseline.
    FleetBaseline,
    /// The real daemon: one writer, one reader, then SIGKILL + recovery.
    SvcMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet-etrain" => Some(Workload::FleetETrain),
            "fleet-baseline" => Some(Workload::FleetBaseline),
            "svc-mixed" => Some(Workload::SvcMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetETrain => "fleet-etrain",
            Workload::FleetBaseline => "fleet-baseline",
            Workload::SvcMixed => "svc-mixed",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pin = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed {value:?} is not a non-negative integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value:?} must be in (0, 600]"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        // `--pin` covers both fleet schedulers whatever the workload.
        workload: match workload {
            Some(workload) => workload,
            None if pin => Workload::FleetETrain,
            None => return Err("missing --workload".to_owned()),
        },
        seed: seed.unwrap_or(BASELINE_SEED),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        pin,
    })
}

/// Refuses to run when any `ETRAIN_*` knob is set: worker count, oracle,
/// observability, reference-cost routing, engine kind and WAL faults
/// would all change what is timed without changing the command line.
fn refuse_env_knobs() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("ETRAIN_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with environment knobs set: {}",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(reason) => {
            eprintln!("etrain-perfbench: {reason}");
            return ExitCode::from(2);
        }
    };
    if let Err(reason) = refuse_env_knobs() {
        eprintln!("etrain-perfbench: {reason}");
        return ExitCode::from(2);
    }
    // Exits 2 itself on a malformed knob; after the check above none is
    // set, so this guards against a knob the prefix check cannot see.
    etrain_bench::validate_env_knobs();

    if args.pin {
        fleet::print_pins();
        return ExitCode::SUCCESS;
    }

    let run = match (args.workload, args.trace) {
        (Workload::SvcMixed, false) => svc::run(args.seed, args.seconds),
        (workload, false) => fleet::run(workload, args.seed, args.seconds),
        (workload, true) => traced(workload, args.seed, args.seconds),
    };
    let outcome = match run {
        Ok(outcome) => outcome,
        Err(reason) => {
            eprintln!("etrain-perfbench: {reason}");
            return ExitCode::FAILURE;
        }
    };
    out::print(args.workload.name(), args.seed, args.trace, &outcome);
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: every layer of both paths, so every traced run
/// reports the same per-layer metrics. The fleet half runs the
/// workload's scheduler (eTrain for `svc-mixed`); the daemon half is the
/// same on every workload.
fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let fleet_workload = match workload {
        Workload::FleetBaseline => Workload::FleetBaseline,
        Workload::FleetETrain | Workload::SvcMixed => Workload::FleetETrain,
    };
    let fleet = fleet::run_traced(fleet_workload, seed, seconds / 2.0)?;
    let svc = svc::run_traced(seed, seconds / 2.0)?;
    Ok(fleet.absorb(svc))
}

//! Runs one reproduction experiment by id and prints its tables and
//! headlines — see DESIGN.md for the paper artifact each id regenerates.
//!
//! ```text
//! repro <id> [--quick] [--csv DIR]
//! ```
//!
//! - `--quick` — reduced horizons/sweeps for a fast smoke run;
//! - `--csv DIR` — also write each table as `DIR/<id>_<index>.csv`.
//!
//! A missing or unknown id prints the usage line and every registry id,
//! then exits with status 2.

fn main() {
    etrain_bench::validate_env_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = etrain_bench::select_experiment(&args).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    });
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir = args
        .iter()
        .position(|a| a == "--csv")
        .map(|i| args.get(i + 1).expect("--csv needs a directory").clone());

    println!("# {} — {}", experiment.name, experiment.description);
    if quick {
        println!("# (quick mode: reduced horizons/sweeps)");
    }
    let result = (experiment.run)(quick);
    for table in &result.tables {
        println!("{table}");
    }
    for headline in &result.headlines {
        println!(
            "# headline {} = {} {}",
            headline.metric, headline.value, headline.unit
        );
    }
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(&dir).expect("creating the --csv directory");
        for (index, table) in result.tables.iter().enumerate() {
            let path = format!("{dir}/{}_{index}.csv", experiment.name);
            std::fs::write(&path, table.to_csv()).expect("writing the CSV file");
            println!("# wrote {path}");
        }
    }
}

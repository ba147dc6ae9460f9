//! `loadbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --server <path to chatiyp> [--out DIR] [--tiny]`
//!
//! Prints the run's report (stamp, phases, every metric with unit and
//! sample count, failures by cause), then, as the last line, one JSON
//! object with `correct`, `attempted`, `failed` and the metrics listed in
//! `BENCHMARK.json`: the end-to-end ones untraced, the per-layer ones
//! with `--trace 1`. Exits non-zero, without the result line, on a usage
//! error, a failed run, or a run that attempted nothing; exits non-zero
//! after the result line on any oracle mismatch.

use loadbench::{Opts, Workload, E2E_METRICS, LAYER_METRICS};
use std::path::PathBuf;

fn main() {
    let opts = match parse(std::env::args().skip(1).collect()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: loadbench --workload ask-hot|ask-cold-fresh|ingest-read --seed N \
                 --seconds S --trace 0|1 --server PATH [--out DIR] [--tiny]"
            );
            std::process::exit(2);
        }
    };
    let mut outcome = match loadbench::run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} run failed: {e}", opts.workload.name());
            std::process::exit(1);
        }
    };
    let (from, wanted): (_, &[&str]) = if opts.trace {
        loadbench::complete_layers(&mut outcome);
        (&outcome.layers, &LAYER_METRICS)
    } else {
        (&outcome.e2e, &E2E_METRICS)
    };
    let report = outcome.render();
    let _ = std::fs::write(opts.out_stem().with_extension("report.txt"), &report);
    print!("{report}");
    match outcome.result_line(from, wanted) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
    if outcome.failed() > 0 {
        std::process::exit(1);
    }
}

fn parse(args: Vec<String>) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = PathBuf::from("loadbench/out");
    let mut tiny = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let server_bin = server.ok_or("--server is required")?;
    if !server_bin.is_file() {
        return Err(format!("no server binary at {}", server_bin.display()));
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server_bin,
        out_dir: out,
        tiny,
    })
}

//! Command line of the benchmark:
//!
//! ```text
//! cgraph-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a record line (seed, host, thread counts, sample counts) and,
//! last, one JSON object with `correct`, `attempted`, `failed` and the
//! mode's metrics.  Exits non-zero on bad arguments, and after printing
//! when an output failed its check.

use cgraph_perfbench::{run, Opts, Size, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: cgraph-perfbench --workload <closed_mix|standing_refresh|evolving_serve> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> Opts {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value}"))),
                )
            }
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Opts {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a non-negative integer")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a non-negative number")),
        trace: trace.unwrap_or_else(|| usage("--trace needs 0 or 1")),
        size: Size::Full,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse(&args);
    let out = run(&opts);
    println!("{}", out.record_line(opts.workload.name()));
    println!("{}", out.result_line(opts.trace));
    if out.failed > 0 {
        std::process::exit(1);
    }
}

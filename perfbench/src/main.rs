//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the input record, every metric with its unit, the failed
//! checks and (traced) the self-time table, then as the last line one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. Exits
//! non-zero without that line when the workload cannot run.

use std::process::ExitCode;

use perfbench::{Config, Scale, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <darpa-cpd|uber-durable|nell2-ingest> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&cfg) {
        Ok(out) => {
            print!("{}", out.report(&cfg));
            println!("{}", out.json_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<Config, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|_| "--seed wants a whole number".to_string())?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s >= 0.0)
        .ok_or("--seconds wants a non-negative number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, got '{other}'")),
    };
    let cwd = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    Ok(Config {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_root: cwd.join(".perfbench"),
        corrupt_mttkrp: false,
    })
}

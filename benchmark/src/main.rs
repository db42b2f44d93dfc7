//! The two-clock benchmark: six workloads, each in a process of its own,
//! measured on the host clock (how long the simulator, serving and
//! cluster code take) and on the simulated SW26010 clock (what the
//! modelled machine would take). See `benchmark/README.md`.
//!
//! ```text
//! swdnn-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's contract)
//! swdnn-benchmark [--seed N] [--seconds S] [--smoke] [--trace]    the whole suite
//! swdnn-benchmark --selfcheck [...]                               the suite twice, compared
//! ```

mod catalog;
mod gen;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub selfcheck: bool,
    pub out_dir: std::path::PathBuf,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: swdnn-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]\n\
         \u{20}                      [--smoke] [--selfcheck] [--out-dir DIR]\n\
         workloads: {}",
        catalog::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn parse(mut argv: impl Iterator<Item = String>) -> Option<Args> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        selfcheck: false,
        out_dir: "benchmark/out".into(),
    };
    let mut pending: Option<String> = None;
    loop {
        let Some(flag) = pending.take().or_else(|| argv.next()) else {
            return Some(args);
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(argv.next()?),
            "--seed" => args.seed = argv.next()?.parse().ok()?,
            "--seconds" => args.seconds = argv.next()?.parse().ok().filter(|s: &f64| *s > 0.0)?,
            "--out-dir" => args.out_dir = argv.next()?.into(),
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            // The driver says `--trace 0|1`; a person says `--trace`.
            "--trace" => match argv.next() {
                Some(v) if v == "0" || v == "1" => args.trace = v == "1",
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            _ => return None,
        }
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().is_some_and(|a| a == "--emit-benchmark-json") {
        print!("{}", suite::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let Some(args) = parse(argv) else {
        return usage();
    };
    match &args.workload {
        Some(name) => {
            if catalog::workload(name).is_none() {
                return usage();
            }
            run::one(name, &args)
        }
        None if args.selfcheck => suite::selfcheck(&args),
        None => suite::all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Option<Args> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse_str("--workload serve_zipf --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("serve_zipf"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 10.0, true));
        let a = parse_str("--workload serve_zipf --seed 42 --seconds 10 --trace 0").unwrap();
        assert!(!a.trace);
    }

    #[test]
    fn a_bare_trace_flag_does_not_swallow_the_next_flag() {
        let a = parse_str("--trace --smoke --seed 7").unwrap();
        assert!(a.trace && a.smoke);
        assert_eq!(a.seed, 7);
        assert!(parse_str("--trace").unwrap().trace);
    }

    #[test]
    fn bad_input_is_refused() {
        assert!(parse_str("--seed many").is_none());
        assert!(parse_str("--seconds 0").is_none());
        assert!(parse_str("--frobnicate").is_none());
        assert!(parse_str("--workload").is_none());
    }
}

//! `served` — the AHEFT scheduler-as-a-service daemon.
//!
//! Loads a deterministic scenario snapshot (paper generator, fabricated
//! mid-run) and answers line-delimited JSON queries over stdin/stdout or
//! TCP. See `crates/serve/src/protocol.rs` for the request grammar and
//! `docs/REPRODUCING.md` for the smoke/bench recipes.
//!
//! ```text
//! served [--jobs N] [--resources N] [--seed N] [--finished F]
//!        [--threads N] [--batch K] [--tcp ADDR]
//! ```
//!
//! Without `--tcp` the daemon serves stdin until EOF — the mode CI smokes:
//! `served < queries.jsonl > responses.jsonl`. Responses go to stdout
//! only; diagnostics go to stderr.

use std::process::ExitCode;

use aheft_serve::engine::{QueryEngine, MAX_THREADS};
use aheft_serve::scenario::ScenarioParams;
use aheft_serve::server::{serve_stream, serve_tcp};

struct Args {
    params: ScenarioParams,
    threads: usize,
    batch: usize,
    tcp: Option<String>,
}

/// Parse the command line (without the program name); every check runs
/// before the scenario is built.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args { params: ScenarioParams::default(), threads: 1, batch: 1, tcp: None };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--jobs" => args.params.jobs = parse(&value("--jobs")?)?,
            "--resources" => args.params.resources = parse(&value("--resources")?)?,
            "--seed" => args.params.seed = parse(&value("--seed")?)?,
            "--finished" => args.params.finished = parse(&value("--finished")?)?,
            "--threads" => args.threads = parse(&value("--threads")?)?,
            "--batch" => args.batch = parse(&value("--batch")?)?,
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--help" | "-h" => return Err(HELP.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{HELP}")),
        }
    }
    if args.params.jobs == 0 || args.params.resources == 0 {
        return Err("--jobs and --resources must be positive".to_string());
    }
    if args.threads == 0 || args.batch == 0 {
        return Err("--threads and --batch must be positive".to_string());
    }
    if args.threads > MAX_THREADS {
        return Err(format!("--threads must be at most {MAX_THREADS}, got {}", args.threads));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid value {s:?}"))
}

const HELP: &str = "served [--jobs N] [--resources N] [--seed N] [--finished F] \
[--threads N] [--batch K] [--tcp ADDR]";

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let scenario = args.params.build();
    eprintln!(
        "served: scenario v={} R={} seed={} finished={} | threads={} batch={}",
        args.params.jobs,
        args.params.resources,
        args.params.seed,
        args.params.finished,
        args.threads,
        args.batch
    );
    let engine = QueryEngine::new(scenario, args.threads);
    let result = match &args.tcp {
        Some(addr) => serve_tcp(&engine, addr, args.batch),
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            serve_stream(&engine, args.batch, stdin.lock(), stdout.lock())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("served: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn threads_are_bounded() {
        assert_eq!(parse(&["--threads", "256"]).unwrap().threads, MAX_THREADS);
        let err = parse(&["--threads", "257"]).err().expect("257 threads must be rejected");
        assert!(err.contains("at most 256"), "error should name the limit: {err}");
        let a = parse(&["--threads", "4", "--batch", "1000000000000"]).unwrap();
        assert_eq!((a.threads, a.batch), (4, 1_000_000_000_000));
        for zero in [["--threads", "0"], ["--batch", "0"]] {
            let err = parse(&zero).err().expect("zero must be rejected");
            assert!(err.contains("must be positive"), "{zero:?}: {err}");
        }
    }
}

//! `analyzer` CLI: `cargo run -p analyzer -- check [--format json] [--root DIR]`.
//!
//! Exit codes: 0 = clean, 1 = findings, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: analyzer check [--format text|json] [--root DIR]\n\
     \n\
     Static determinism/hot-path lints for the workspace at <root> (default:\n\
     the current directory). See docs/ANALYZER.md for the catalog."
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = "text".to_string();
    let mut root = PathBuf::from(".");
    let mut command = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" if command.is_none() => command = Some("check"),
            "--format" => match it.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                _ => {
                    eprintln!("--format takes `text` or `json`\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--root" => match it.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("--root takes a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    if command != Some("check") {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    }

    let diags = match analyzer::check_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("analyzer: {e}");
            return ExitCode::from(2);
        }
    };
    if format == "json" {
        print!("{}", analyzer::to_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        if diags.is_empty() {
            eprintln!(
                "analyzer: workspace clean ({} lint rules active)",
                analyzer::LINT_NAMES.len()
            );
        } else {
            eprintln!("analyzer: {} finding(s)", diags.len());
        }
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

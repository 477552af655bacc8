//! Argument parsing for the `experiments` binary, kept in the library so
//! the parser is unit-testable and validation happens **before** any sweep
//! runs (an unknown artifact at the end of the list must not waste the
//! minutes the earlier artifacts took).

use std::path::PathBuf;

use aheft_parcomp::MAX_THREADS;

use crate::scale::Scale;
use crate::sweep::{Shard, SweepConfig};

/// Every artifact name the binary accepts (besides the `all` alias).
pub const ARTIFACTS: [&str; 17] = [
    "fig5",
    "headline",
    "table3",
    "table4",
    "table6",
    "table7",
    "table8",
    "fig8a",
    "fig8b",
    "fig8c",
    "fig8d",
    "fig8e",
    "fig8f",
    "ablations",
    "policies",
    "robustness",
    "multitenant",
];

/// Parsed command line of the `experiments` binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Grid coverage (`--scale smoke|default|full`).
    pub scale: Scale,
    /// CSV output directory (`--csv DIR`), if requested.
    pub csv_dir: Option<PathBuf>,
    /// Sweep execution: `--threads N`, `--shard i/m`, `--quiet`.
    pub sweep: SweepConfig,
    /// Validated artifact names, `all` already expanded, in run order.
    pub artifacts: Vec<String>,
    /// Validated policy names for the `policies` artifact (`--policy
    /// NAME[,NAME...]`, repeatable); empty = the full registry.
    pub policies: Vec<String>,
    /// Validated fairness-policy names for the `multitenant` artifact
    /// (`--fairness NAME[,NAME...]`, repeatable); empty = the full
    /// registry.
    pub fairness: Vec<String>,
    /// `merge` subcommand arguments, when the first positional was `merge`.
    pub merge: Option<MergeArgs>,
    /// `--help` was requested; print [`usage`] and exit 0.
    pub help: bool,
}

/// Arguments of `experiments merge --out DIR SHARD_DIR...`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeArgs {
    /// Output directory for the stitched CSVs.
    pub out: PathBuf,
    /// Shard CSV directories, in shard-index order (`0/m` first).
    pub inputs: Vec<PathBuf>,
}

/// The usage string printed by `--help` and on parse errors.
pub fn usage() -> String {
    format!(
        "usage: experiments [--scale smoke|default|full] [--csv DIR]\n\
        \x20                  [--threads N] [--shard i/m] [--policy NAME[,NAME...]]\n\
        \x20                  [--fairness NAME[,NAME...]] [--quiet] <artifact>...\n\
        \x20      experiments merge --out DIR SHARD_DIR...\n\
         artifacts: {} all\n\
         policies:  {}\n\
         fairness:  {}\n\
         --threads N   worker threads for the case sweep, at most {MAX_THREADS}\n\
        \x20              (default: all cores)\n\
         --shard i/m   compute only table rows with index ≡ i (mod m) — split\n\
        \x20              one artifact across m independent processes; taking\n\
        \x20              row j of each table from shard j mod m rebuilds the\n\
        \x20              unsharded CSV byte for byte\n\
         --policy ...  which registered policies the `policies` artifact\n\
        \x20              sweeps (repeatable; default: the full registry)\n\
         --fairness .. which fairness policies the `multitenant` artifact\n\
        \x20              sweeps (repeatable; default: the full registry)\n\
         --quiet       suppress the live done/total case counter\n\
         merge         stitch the --csv directories of a complete shard set\n\
        \x20              (listed in shard order) back into one result set,\n\
        \x20              byte-identical to an unsharded run",
        ARTIFACTS.join(" "),
        aheft_core::policy::POLICY_NAMES.join(" "),
        aheft_core::service::FAIRNESS_NAMES.join(" ")
    )
}

/// Parse `experiments merge` arguments (everything after the `merge`
/// keyword): `--out DIR` plus two or more shard directories in shard
/// order. `Ok(None)` means `--help` was requested.
fn parse_merge_args(args: Vec<String>) -> Result<Option<MergeArgs>, String> {
    let mut out: Option<PathBuf> = None;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(PathBuf::from(flag_value(&mut it, "--out")?)),
            "--help" | "-h" => return Ok(None),
            other if other.starts_with('-') => {
                return Err(format!("unknown merge flag '{other}'"));
            }
            dir => inputs.push(PathBuf::from(dir)),
        }
    }
    let out = out.ok_or("merge requires --out DIR")?;
    if inputs.len() < 2 {
        return Err("merge requires at least two shard directories".into());
    }
    Ok(Some(MergeArgs { out, inputs }))
}

fn flag_value(it: &mut std::vec::IntoIter<String>, flag: &str) -> Result<String, String> {
    match it.next() {
        // A following flag means the value was forgotten, not that the
        // flag was meant literally ("--csv --quiet" must not write into
        // a directory named "--quiet").
        Some(v) if !v.starts_with('-') => Ok(v),
        _ => Err(format!("{flag} requires a value")),
    }
}

/// Parse and validate the command line (everything after the program name).
/// Returns `Err(message)` for anything malformed; the caller prints the
/// message plus [`usage`] and exits non-zero.
pub fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let mut scale = Scale::Default;
    let mut csv_dir: Option<PathBuf> = None;
    let mut sweep = SweepConfig { progress: true, ..SweepConfig::default() };
    let mut artifacts: Vec<String> = Vec::new();
    let mut policies: Vec<String> = Vec::new();
    let mut fairness: Vec<String> = Vec::new();
    if args.first().map(String::as_str) == Some("merge") {
        let merge = parse_merge_args(args.into_iter().skip(1).collect())?;
        return Ok(Args {
            scale,
            csv_dir,
            sweep,
            artifacts: Vec::new(),
            policies,
            fairness,
            help: merge.is_none(),
            merge,
        });
    }
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = flag_value(&mut it, "--scale")?;
                scale = Scale::parse(&v)
                    .ok_or_else(|| format!("unknown scale '{v}' (smoke|default|full)"))?;
            }
            "--csv" => {
                csv_dir = Some(PathBuf::from(flag_value(&mut it, "--csv")?));
            }
            "--threads" => {
                let v = flag_value(&mut it, "--threads")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--threads expects a number, got '{v}'"))?;
                if n == 0 {
                    return Err("--threads must be >= 1".into());
                }
                if n > MAX_THREADS {
                    return Err(format!("--threads must be at most {MAX_THREADS}, got {n}"));
                }
                sweep.threads = n;
            }
            "--shard" => {
                let v = flag_value(&mut it, "--shard")?;
                sweep.shard = Shard::parse(&v)
                    .ok_or_else(|| format!("--shard expects i/m with i < m, got '{v}'"))?;
            }
            "--policy" => {
                // Validated upfront, like artifacts: an unknown policy at
                // the end of the list must not waste a sweep.
                let v = flag_value(&mut it, "--policy")?;
                for name in v.split(',') {
                    let name = name.trim();
                    if !aheft_core::policy::is_policy(name) {
                        return Err(format!(
                            "unknown policy '{name}' (known: {})",
                            aheft_core::policy::POLICY_NAMES.join(" ")
                        ));
                    }
                    policies.push(name.to_string());
                }
            }
            "--fairness" => {
                // Same upfront validation as --policy: an unknown fairness
                // name at the end of the list must not waste a sweep.
                let v = flag_value(&mut it, "--fairness")?;
                for name in v.split(',') {
                    let name = name.trim();
                    if !aheft_core::service::is_fairness(name) {
                        return Err(format!(
                            "unknown fairness policy '{name}' (known: {})",
                            aheft_core::service::FAIRNESS_NAMES.join(" ")
                        ));
                    }
                    fairness.push(name.to_string());
                }
            }
            "--quiet" => sweep.progress = false,
            "--help" | "-h" => {
                return Ok(Args {
                    scale,
                    csv_dir,
                    sweep,
                    artifacts: Vec::new(),
                    policies,
                    fairness,
                    merge: None,
                    help: true,
                });
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag '{other}'"));
            }
            other => artifacts.push(other.to_string()),
        }
    }
    if artifacts.is_empty() {
        artifacts.push("all".into());
    }
    if artifacts.iter().any(|a| a == "all") {
        artifacts = ARTIFACTS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(bad) = artifacts.iter().find(|a| !ARTIFACTS.contains(&a.as_str())) {
        return Err(format!("unknown artifact '{bad}'"));
    }
    // --policy configures only the `policies` artifact; a sweep that would
    // silently drop the flag is rejected upfront like any other mistake.
    if !policies.is_empty() && !artifacts.iter().any(|a| a == "policies") {
        return Err("--policy only applies to the 'policies' artifact; add it \
                    to the artifact list"
            .into());
    }
    // Likewise --fairness configures only the `multitenant` artifact.
    if !fairness.is_empty() && !artifacts.iter().any(|a| a == "multitenant") {
        return Err("--fairness only applies to the 'multitenant' artifact; add \
                    it to the artifact list"
            .into());
    }
    Ok(Args { scale, csv_dir, sweep, artifacts, policies, fairness, merge: None, help: false })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unknown_artifact_is_rejected_upfront() {
        for bad in ["bogus", "fig8g", "table5", "fig8aa"] {
            let err = parse(&["table3", bad]).expect_err(bad);
            assert!(err.contains(bad), "error should name the artifact: {err}");
        }
    }

    #[test]
    fn unknown_scale_is_rejected() {
        assert!(parse(&["--scale", "huge"]).is_err());
        assert!(parse(&["--scale"]).is_err(), "missing value");
    }

    #[test]
    fn scale_parse_rejects_bad_input() {
        for bad in ["", "Smoke", "FULL", "medium", "smoke ", "0"] {
            assert_eq!(Scale::parse(bad), None, "should reject {bad:?}");
        }
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
    }

    #[test]
    fn all_expands_to_every_artifact() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.artifacts.len(), ARTIFACTS.len());
        let b = parse(&["all"]).unwrap();
        assert_eq!(a.artifacts, b.artifacts);
    }

    #[test]
    fn threads_and_shard_parse() {
        let a = parse(&["--threads", "4", "--shard", "1/2", "table3"]).unwrap();
        assert_eq!(a.sweep.threads, 4);
        assert_eq!(a.sweep.shard, Shard { index: 1, count: 2 });
        assert_eq!(a.artifacts, vec!["table3"]);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "four"]).is_err());
        assert_eq!(parse(&["--threads", "256"]).unwrap().sweep.threads, MAX_THREADS);
        let err = parse(&["--threads", "257"]).unwrap_err();
        assert!(err.contains("at most 256"), "error should name the limit: {err}");
        assert!(parse(&["--shard", "2/2"]).is_err());
        assert!(parse(&["--shard", "nope"]).is_err());
    }

    #[test]
    fn unknown_flag_is_rejected() {
        assert!(parse(&["--frobnicate"]).is_err());
    }

    #[test]
    fn policy_flag_parses_lists_and_repeats() {
        let a = parse(&["--policy", "heft,ranked-jit", "policies"]).unwrap();
        assert_eq!(a.policies, vec!["heft", "ranked-jit"]);
        assert_eq!(a.artifacts, vec!["policies"]);
        // Repeated flags append, spaces around commas are tolerated; the
        // bare flag runs `all`, which includes the policies artifact.
        let b = parse(&["--policy", "aheft-noinsert", "--policy", "minmin, sufferage"]).unwrap();
        assert_eq!(b.policies, vec!["aheft-noinsert", "minmin", "sufferage"]);
        assert!(b.artifacts.iter().any(|a| a == "policies"));
        // No --policy = empty list (artifact defaults to the full registry).
        assert!(parse(&["policies"]).unwrap().policies.is_empty());
    }

    #[test]
    fn policy_flag_without_policies_artifact_is_rejected() {
        // The flag must never be silently dropped: selecting policies for
        // a sweep that does not run the policies artifact is an error.
        let err = parse(&["--policy", "ranked-jit", "table3"]).expect_err("dropped flag");
        assert!(err.contains("policies"), "{err}");
        // Fine when the artifact list includes it (explicitly or via all).
        assert!(parse(&["--policy", "ranked-jit", "table3", "policies"]).is_ok());
        assert!(parse(&["--policy", "ranked-jit", "all"]).is_ok());
    }

    #[test]
    fn unknown_policy_is_rejected_upfront() {
        for bad in ["bogus", "heft,bogus", "HEFT", ""] {
            let err = parse(&["--policy", bad, "policies"]).expect_err(bad);
            assert!(err.contains("unknown policy") || err.contains("--policy"), "{err}");
        }
        assert!(parse(&["--policy"]).is_err(), "missing value");
        // The error names every registered policy for discoverability.
        let err = parse(&["--policy", "bogus"]).unwrap_err();
        assert!(err.contains("ranked-jit"), "{err}");
    }

    #[test]
    fn fairness_flag_parses_lists_and_repeats() {
        let a = parse(&["--fairness", "fcfs,priority", "multitenant"]).unwrap();
        assert_eq!(a.fairness, vec!["fcfs", "priority"]);
        assert_eq!(a.artifacts, vec!["multitenant"]);
        // Repeated flags append, spaces around commas are tolerated; the
        // bare flag runs `all`, which includes the multitenant artifact.
        let b = parse(&["--fairness", "fair-share", "--fairness", "fcfs, priority"]).unwrap();
        assert_eq!(b.fairness, vec!["fair-share", "fcfs", "priority"]);
        assert!(b.artifacts.iter().any(|a| a == "multitenant"));
        // No --fairness = empty list (artifact defaults to the registry).
        assert!(parse(&["multitenant"]).unwrap().fairness.is_empty());
    }

    #[test]
    fn unknown_fairness_is_rejected_upfront() {
        for bad in ["bogus", "fcfs,bogus", "FCFS", ""] {
            let err = parse(&["--fairness", bad, "multitenant"]).expect_err(bad);
            assert!(err.contains("unknown fairness") || err.contains("--fairness"), "{err}");
        }
        assert!(parse(&["--fairness"]).is_err(), "missing value");
        // The error names every registered fairness policy.
        let err = parse(&["--fairness", "bogus"]).unwrap_err();
        assert!(err.contains("fair-share"), "{err}");
    }

    #[test]
    fn fairness_flag_without_multitenant_artifact_is_rejected() {
        // The flag must never be silently dropped.
        let err = parse(&["--fairness", "fcfs", "table3"]).expect_err("dropped flag");
        assert!(err.contains("multitenant"), "{err}");
        assert!(parse(&["--fairness", "fcfs", "table3", "multitenant"]).is_ok());
        assert!(parse(&["--fairness", "fcfs", "all"]).is_ok());
    }

    #[test]
    fn flag_never_swallows_a_following_flag_as_its_value() {
        // "--csv --quiet" must not write CSVs into a directory named
        // "--quiet" while leaving progress output on.
        let err = parse(&["--csv", "--quiet", "table3"]).expect_err("missing value");
        assert!(err.contains("--csv"), "error should name the flag: {err}");
        assert!(parse(&["--scale", "--threads"]).is_err());
    }

    #[test]
    fn help_short_circuits() {
        let a = parse(&["--help", "bogus-not-validated"]).unwrap();
        assert!(a.help);
        assert!(usage().contains("--shard"));
        assert!(usage().contains("merge"));
    }

    #[test]
    fn merge_subcommand_parses_out_and_inputs_in_order() {
        let a = parse(&["merge", "--out", "full", "s0", "s1", "s2"]).unwrap();
        let m = a.merge.expect("merge subcommand");
        assert_eq!(m.out, PathBuf::from("full"));
        assert_eq!(m.inputs, vec![PathBuf::from("s0"), PathBuf::from("s1"), PathBuf::from("s2")]);
        assert!(!a.help);
        assert!(a.artifacts.is_empty());
        // --out may come after the inputs too.
        let b = parse(&["merge", "s0", "s1", "--out", "full"]).unwrap();
        assert_eq!(b.merge.unwrap().inputs.len(), 2);
    }

    #[test]
    fn merge_requires_out_and_two_inputs() {
        let err = parse(&["merge", "s0", "s1"]).expect_err("missing --out");
        assert!(err.contains("--out"), "{err}");
        let err = parse(&["merge", "--out", "full", "s0"]).expect_err("one shard dir");
        assert!(err.contains("two"), "{err}");
        let err = parse(&["merge", "--out"]).expect_err("missing value");
        assert!(err.contains("--out"), "{err}");
        let err = parse(&["merge", "--frobnicate", "s0", "s1"]).expect_err("unknown flag");
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn merge_help_short_circuits() {
        let a = parse(&["merge", "--help"]).unwrap();
        assert!(a.help);
        assert!(a.merge.is_none());
    }

    #[test]
    fn merge_is_only_a_subcommand_in_first_position() {
        // "merge" after an artifact is an unknown artifact, not a command.
        assert!(parse(&["table3", "merge"]).is_err());
    }
}

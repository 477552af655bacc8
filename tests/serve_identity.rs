//! Byte-identity gate for the ISSUE 10 query service.
//!
//! A response stream must be a pure function of the *request stream*:
//! batch boundaries, worker counts, and the warm state of whichever
//! per-worker [`ScheduleWorkspace`] evaluated a cache miss must never
//! change a single output byte. The proptest below replays random query
//! logs (reads mixed with state-changing deltas) through engines at every
//! thread count × random batch split and compares the whole response
//! stream against the sequential line-at-a-time golden run.
//!
//! `GOLDEN_RESPONSES` then pins the *content*, not just the invariance:
//! an FNV-1a fingerprint of the full response stream for a fixed query
//! log over the fixed demo scenario, in the style of
//! `tests/policy_differential.rs`. To regenerate after an *intentional*
//! protocol or scheduling change, run
//! `GOLDEN_PRINT=1 cargo test --test serve_identity -- --nocapture`
//! and replace the constant.

use aheft_serve::engine::QueryEngine;
use aheft_serve::scenario::ScenarioParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const JOBS: usize = 60;
const RESOURCES: usize = 6;

fn engine(threads: usize) -> QueryEngine {
    QueryEngine::new(
        ScenarioParams { jobs: JOBS, resources: RESOURCES, seed: 11, finished: 0.5 }.build(),
        threads,
    )
}

/// The query alphabet: `kind` indexes pick deterministic request lines,
/// mixing every read op, cache-hitting repeats, state-changing deltas,
/// rejected requests, unparsable garbage, and `stats` (whose counters must
/// not depend on batching or workers either).
fn line_for(kind: usize, i: usize) -> String {
    let id = i as u64 + 1;
    match kind % ALPHABET {
        0 => format!(r#"{{"id":{id},"op":"info"}}"#),
        1 => format!(r#"{{"id":{id},"op":"replan"}}"#),
        2 => format!(r#"{{"id":{id},"op":"replan","policy":"heft"}}"#),
        3 => format!(r#"{{"id":{id},"op":"whatif","remove":[{}]}}"#, i % RESOURCES),
        4 => format!(
            r#"{{"id":{id},"op":"whatif","remove":[{},{}]}}"#,
            i % RESOURCES,
            (i + 2) % RESOURCES
        ),
        5 => {
            let col = vec!["25"; JOBS].join(",");
            format!(r#"{{"id":{id},"op":"whatif","add":[[{col}]]}}"#)
        }
        6 => format!(r#"{{"id":{id},"op":"place","job":{}}}"#, (i * 7) % JOBS),
        7 => format!(r#"{{"id":{id},"op":"delta","event":"clock","clock":{}}}"#, 600 + i),
        8 => format!(r#"{{"id":{id},"op":"whatif","policy":"minmin"}}"#),
        9 => format!(r#"{{"id":{id},"op":"stats"}}"#),
        _ => format!("garbage line {id}"),
    }
}

/// Number of line kinds [`line_for`] draws from.
const ALPHABET: usize = 11;

/// The reference stream: a fresh sequential engine fed one line at a time.
fn golden_run(lines: &[String]) -> String {
    let e = engine(1);
    let mut out = String::new();
    for l in lines {
        e.process_line(l, &mut out);
    }
    out
}

/// Split `lines` into batches whose sizes cycle through `cuts`.
fn replay_split(lines: &[String], threads: usize, cuts: &[usize]) -> String {
    let e = engine(threads);
    let mut out = String::new();
    let mut i = 0;
    let mut c = 0;
    while i < lines.len() {
        let step = cuts[c % cuts.len()].max(1);
        c += 1;
        let end = (i + step).min(lines.len());
        e.process_batch(lines[i..end].iter().map(String::as_str), &mut out);
        i = end;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of the log into batches, at any worker count,
    /// yields the exact bytes of the sequential reference run.
    #[test]
    fn response_stream_is_invariant_under_batching_and_threads(
        (seed, n, ncuts) in (0u64..1_000_000, 1usize..32, 1usize..5)
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kinds: Vec<usize> = (0..n).map(|_| rng.random_range(0..ALPHABET)).collect();
        let cuts: Vec<usize> = (0..ncuts).map(|_| rng.random_range(1..6)).collect();
        let lines: Vec<String> =
            kinds.iter().enumerate().map(|(i, &k)| line_for(k, i)).collect();
        let golden = golden_run(&lines);
        for threads in [1usize, 2, 4] {
            let got = replay_split(&lines, threads, &cuts);
            prop_assert_eq!(
                &got, &golden,
                "threads={} cuts={:?} kinds={:?} diverged from sequential bytes",
                threads, &cuts, &kinds
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden response fingerprints (content pin, not just invariance)
// ---------------------------------------------------------------------

/// FNV-1a over the raw response bytes — same idiom as the differential
/// trace hashes.
fn stream_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A fixed log walking every op through two scenario versions.
fn golden_log() -> Vec<String> {
    let col = vec!["30"; JOBS].join(",");
    vec![
        r#"{"id":1,"op":"info"}"#.into(),
        r#"{"id":2,"op":"replan"}"#.into(),
        r#"{"id":3,"op":"replan","policy":"heft"}"#.into(),
        r#"{"id":4,"op":"whatif","remove":[2]}"#.into(),
        r#"{"id":5,"op":"whatif","remove":[0,4]}"#.into(),
        format!(r#"{{"id":6,"op":"whatif","add":[[{col}]]}}"#),
        format!(r#"{{"id":7,"op":"whatif","add":[[{col}]],"remove":[1]}}"#),
        r#"{"id":8,"op":"place","job":45}"#.into(),
        r#"{"id":9,"op":"whatif","policy":"minmin"}"#.into(),
        r#"{"id":10,"op":"delta","event":"left","resource":3}"#.into(),
        r#"{"id":11,"op":"replan"}"#.into(),
        r#"{"id":12,"op":"whatif","remove":[2]}"#.into(),
        r#"{"id":13,"op":"delta","event":"clock","clock":777.5}"#.into(),
        r#"{"id":14,"op":"info"}"#.into(),
        r#"{"id":15,"op":"place","job":45,"policy":"aheft-noinsert"}"#.into(),
    ]
}

/// Fingerprint of the full response stream for [`golden_log`] over the
/// fixed `jobs=60/resources=6/seed=11/finished=0.5` scenario.
const GOLDEN_RESPONSES: &str = "lines=15 bytes=1456 fnv=0f2aca0478dbd9b0";

#[test]
fn golden_log_produces_pinned_response_bytes() {
    let out = golden_run(&golden_log());
    let fp =
        format!("lines={} bytes={} fnv={:016x}", out.lines().count(), out.len(), stream_hash(&out));
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        println!("const GOLDEN_RESPONSES: &str = \"{fp}\";");
        println!("--- full stream ---\n{out}");
        return;
    }
    assert_eq!(
        fp, GOLDEN_RESPONSES,
        "response stream diverged from the golden capture\n--- got stream ---\n{out}"
    );
}

//! Independent oracle for the query engine's per-version baseline memo.
//!
//! `served` runs the current-pool AHEFT pass at most once per scenario
//! version and planning config, and answers every `replan`, `place` and
//! `whatif` at that version from it. The golden fingerprints cover fixed
//! logs only; this suite checks the memo from outside on random ones.
//! Plan queries under all four planned policy names are mixed with
//! `clock`, `left`, `joined` and `finished` deltas (some of them
//! rejected) and fed one line at a time. After each plan answer the
//! numbers are recomputed from `engine.store().load()` on fresh
//! workspaces — `aheft_schedule_into` for the baseline, `what_if` for the
//! hypothetical — and every number field of the response must match bit
//! for bit, as must the replan fingerprint. A memo keyed without the
//! config, or kept across a version, answers with another plan's numbers.

use aheft::core::aheft::{aheft_schedule_into, ScheduleWorkspace};
use aheft::core::policy::planning_config;
use aheft::core::runner::RunConfig;
use aheft::core::whatif::{what_if, WhatIfQuery};
use aheft::gridsim::plan::Assignment;
use aheft::workflow::{JobId, ResourceId};
use aheft_serve::engine::QueryEngine;
use aheft_serve::scenario::{Scenario, ScenarioParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

const JOBS: usize = 40;
const RESOURCES: usize = 5;
const POLICIES: [&str; 4] = ["heft", "aheft", "aheft-noinsert", "aheft-pin"];

/// A cost column for a hypothetical or joining resource.
fn column(rng: &mut StdRng) -> String {
    let costs: Vec<String> =
        (0..JOBS).map(|_| rng.random_range(5.0..80.0f64).to_string()).collect();
    format!("[{}]", costs.join(","))
}

/// One request line drawn against the current scenario: plan queries
/// mostly, a delta in about one line of five.
fn draw(rng: &mut StdRng, id: u64, scen: &Scenario) -> String {
    let policy = POLICIES[rng.random_range(0..POLICIES.len())];
    let resources = scen.costs.resource_count();
    match rng.random_range(0..10) {
        0 | 1 => format!(r#"{{"id":{id},"op":"replan","policy":"{policy}"}}"#),
        2 | 3 => {
            let job = rng.random_range(0..JOBS);
            format!(r#"{{"id":{id},"op":"place","policy":"{policy}","job":{job}}}"#)
        }
        4..=7 => {
            let add: Vec<String> = (0..rng.random_range(0..3)).map(|_| column(rng)).collect();
            // Now and then a resource outside the pool: an error answer.
            let remove: Vec<String> = (0..rng.random_range(0..3))
                .map(|_| rng.random_range(0..resources + 1).to_string())
                .collect();
            format!(
                r#"{{"id":{id},"op":"whatif","policy":"{policy}","add":[{}],"remove":[{}]}}"#,
                add.join(","),
                remove.join(",")
            )
        }
        _ => match rng.random_range(0..4) {
            0 => {
                let clock = scen.snapshot.clock + rng.random_range(0.0..50.0f64);
                format!(r#"{{"id":{id},"op":"delta","event":"clock","clock":{clock}}}"#)
            }
            1 => {
                let r = rng.random_range(0..resources);
                format!(r#"{{"id":{id},"op":"delta","event":"left","resource":{r}}}"#)
            }
            2 => format!(r#"{{"id":{id},"op":"delta","event":"joined","column":{}}}"#, column(rng)),
            _ => {
                // A job whose inputs are done, or any job (likely rejected).
                let finished = |j: JobId| scen.snapshot.is_finished(j);
                let ready: Vec<JobId> = (0..JOBS)
                    .map(JobId::from)
                    .filter(|&j| {
                        !finished(j) && scen.dag.preds(j).iter().all(|&(p, _)| finished(p))
                    })
                    .collect();
                let job = if !ready.is_empty() && rng.random_bool(0.8) {
                    ready[rng.random_range(0..ready.len())]
                } else {
                    JobId::from(rng.random_range(0..JOBS))
                };
                let r = scen.alive[rng.random_range(0..scen.alive.len())];
                let time = scen.snapshot.clock + rng.random_range(0.0..100.0f64);
                format!(
                    r#"{{"id":{id},"op":"delta","event":"finished","job":{},"resource":{},"time":{time}}}"#,
                    job.idx(),
                    r.idx()
                )
            }
        },
    }
}

/// The replan fingerprint: FNV-1a over each assignment's job, resource,
/// start bits and finish bits, as little-endian `u64`s.
fn fingerprint(assignments: &[Assignment]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in assignments {
        let words =
            [a.job.idx() as u64, a.resource.idx() as u64, a.start.to_bits(), a.finish.to_bits()];
        for b in words.iter().flat_map(|w| w.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(x) => *x,
        Value::U64(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

fn uint(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        other => panic!("not an unsigned integer: {other:?}"),
    }
}

/// Recompute the answer to `request` (already answered as `response`)
/// against `scen` from scratch and compare. Returns a description of the
/// first mismatch.
fn check(scen: &Scenario, request: &Value, response: &Value) -> Result<(), String> {
    let op = request.field("op").as_str().unwrap_or_default();
    if !matches!(op, "replan" | "place" | "whatif") {
        return Ok(());
    }
    let policy = request.field("policy").as_str().expect("every drawn query names a policy");
    let config = planning_config(policy, &RunConfig::default()).expect("planned policy");
    let mut ws = ScheduleWorkspace::new();
    let baseline = aheft_schedule_into(
        &scen.dag,
        &scen.costs,
        scen.snapshot.view(),
        &scen.alive,
        &config,
        &mut ws,
    );
    let ok = matches!(response.field("ok"), Value::Bool(true));
    let same = |field: &str, want: f64| {
        let got = number(response.field(field));
        if got.to_bits() == want.to_bits() {
            Ok(())
        } else {
            Err(format!("{field}: answered {got}, recomputed {want}"))
        }
    };
    if ok && uint(response.field("version")) != scen.version {
        return Err(format!("answered at another version than {}", scen.version));
    }
    match op {
        "replan" => {
            same("makespan", baseline)?;
            same("assignments", ws.assignments().len() as f64)?;
            let fp = fingerprint(ws.assignments());
            match response.field("fingerprint").as_str() {
                Some(got) if got == fp => Ok(()),
                got => Err(format!("fingerprint: answered {got:?}, recomputed {fp}")),
            }
        }
        "place" => {
            let job = JobId::from(uint(request.field("job")) as usize);
            match ws.assignments().iter().find(|a| a.job == job) {
                Some(a) if ok => {
                    same("job", job.idx() as f64)?;
                    same("resource", a.resource.idx() as f64)?;
                    same("start", a.start)?;
                    same("eft", a.finish)
                }
                None if !ok => Ok(()),
                planned => Err(format!("place: plan has {planned:?}, answer ok={ok}")),
            }
        }
        _ => {
            let list = |field: &str| request.field(field).as_seq().unwrap_or_default().to_vec();
            let add = list("add")
                .iter()
                .map(|c| c.as_seq().expect("a column").iter().map(number).collect())
                .collect();
            let remove =
                list("remove").iter().map(|x| ResourceId::from(uint(x) as usize)).collect();
            let mut fresh = ScheduleWorkspace::new();
            let hypothetical = what_if(
                &scen.dag,
                &scen.costs,
                &scen.snapshot,
                &scen.alive,
                &config,
                &WhatIfQuery::Modify { add, remove },
                &mut fresh,
            );
            match hypothetical {
                Ok(h) if ok => {
                    same("baseline", baseline)?;
                    same("hypothetical", h)?;
                    same("gain", baseline - h)
                }
                Err(e) if !ok => match response.field("error").as_str() {
                    Some(msg) if msg == e.to_string() => Ok(()),
                    msg => Err(format!("whatif error: answered {msg:?}, recomputed {e}")),
                },
                want => Err(format!("whatif: recomputed {want:?}, answer ok={ok}")),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every plan answer equals a from-scratch recomputation against the
    /// version it was answered at.
    #[test]
    fn plan_answers_match_a_fresh_recomputation(
        (seed, scenario_seed, n) in (0u64..1_000_000, 0u64..4, 20usize..60)
    ) {
        let params =
            ScenarioParams { jobs: JOBS, resources: RESOURCES, seed: scenario_seed, finished: 0.4 };
        let engine = QueryEngine::new(params.build(), 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = String::new();
        for i in 0..n {
            let line = draw(&mut rng, i as u64 + 1, &engine.store().load());
            out.clear();
            engine.process_line(&line, &mut out);
            let request: Value = serde_json::from_str(&line).expect("drawn lines are JSON");
            let response: Value = serde_json::from_str(&out).expect("answers are JSON");
            let verdict = check(&engine.store().load(), &request, &response);
            prop_assert!(verdict.is_ok(), "{}\n{line}\n-> {out}", verdict.unwrap_err());
        }
    }
}

//! Batch query evaluation over the scenario store.
//!
//! The engine owns one persistent [`ScheduleWorkspace`] per worker (warm
//! rank cache, row-major mirror, what-if scratch table — all keyed on
//! `CostTable::state_id`, so consecutive queries against one scenario
//! version stay on the workspace fast paths) and a per-version response
//! cache: a response is a pure function of `(scenario version, canonical
//! query)`, so repeats are answered by a `BTreeMap` lookup and cache
//! misses fan out over [`aheft_parcomp::par_map_chunked`].
//!
//! Determinism: the emitted response stream depends only on the request
//! stream — not on batch boundaries, worker count, or which worker
//! evaluated a miss. Workspace warm state never changes an answer (pinned
//! by the core identity suites), the cache is consulted and filled in
//! request order, and deltas are barriers that drain pending reads first.

use std::collections::BTreeMap;
use std::sync::Mutex;

use aheft_core::aheft::{aheft_schedule_into, ScheduleWorkspace};
use aheft_core::policy::planning_config;
use aheft_core::runner::RunConfig;
use aheft_core::whatif::{what_if, WhatIfQuery};
use aheft_gridsim::plan::Assignment;
use aheft_parcomp::par_map_chunked;

use crate::protocol::{cache_key, error_tail, push_f64, push_response, push_u64, Op, Request};
use crate::scenario::{Delta, Scenario, ScenarioStore};

/// A long-lived query engine over one [`ScenarioStore`].
#[derive(Debug)]
pub struct QueryEngine {
    store: ScenarioStore,
    run_cfg: RunConfig,
    threads: usize,
    workers: Vec<Mutex<ScheduleWorkspace>>,
    cache: Mutex<ResponseCache>,
}

/// Response tails memoized per scenario version (cleared when a delta
/// publishes a new version). `BTreeMap`: deterministic iteration, and the
/// analyzer's hash-collection rule holds.
#[derive(Debug, Default)]
struct ResponseCache {
    version: u64,
    map: BTreeMap<String, String>,
}

/// Where a request's response tail comes from during batch assembly.
enum Tail {
    /// Already cached (or resolved earlier in this batch).
    Cached(String),
    /// Index into this batch's miss list.
    Miss(usize),
}

impl QueryEngine {
    /// Build an engine over `scenario` with `threads` batch workers
    /// (1 = fully sequential; any `N` emits identical bytes).
    pub fn new(scenario: Scenario, threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = (0..threads).map(|_| Mutex::new(ScheduleWorkspace::new())).collect();
        Self {
            store: ScenarioStore::new(scenario),
            run_cfg: RunConfig::default(),
            threads,
            workers,
            cache: Mutex::new(ResponseCache::default()),
        }
    }

    /// The underlying store (tests drive deltas through it directly).
    pub fn store(&self) -> &ScenarioStore {
        &self.store
    }

    /// Worker count this engine fans cache misses over.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Process one request line, appending the response line to `out`.
    pub fn process_line(&self, line: &str, out: &mut String) {
        self.process_batch(std::iter::once(line), out);
    }

    /// Drain a batch of request lines in order, appending one response
    /// line each. Deltas act as barriers: pending read-only queries are
    /// flushed (and answered against the pre-delta version) first.
    pub fn process_batch<'a, I>(&self, lines: I, out: &mut String)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut run: Vec<(u64, Op)> = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            match Request::parse(line) {
                Err((id, msg)) => {
                    self.flush_reads(&mut run, out);
                    push_response(out, id, &error_tail(&msg));
                }
                Ok(Request { id, op: Op::Delta(delta) }) => {
                    self.flush_reads(&mut run, out);
                    self.apply_delta(id, &delta, out);
                }
                Ok(Request { id, op }) => run.push((id, op)),
            }
        }
        self.flush_reads(&mut run, out);
    }

    /// Apply a delta and answer with the published version (or the typed
    /// rejection).
    fn apply_delta(&self, id: u64, delta: &Delta, out: &mut String) {
        match self.store.apply(delta) {
            Ok(version) => {
                let mut tail = String::from("\"ok\":true,\"version\":");
                push_u64(&mut tail, version);
                push_response(out, id, &tail);
            }
            Err(e) => push_response(out, id, &error_tail(&e.to_string())),
        }
    }

    /// Answer a run of read-only queries against one scenario load:
    /// resolve cache hits, evaluate deduplicated misses (in parallel when
    /// `threads > 1`), fill the cache in request order, emit in request
    /// order.
    fn flush_reads(&self, run: &mut Vec<(u64, Op)>, out: &mut String) {
        if run.is_empty() {
            return;
        }
        let scen = self.store.load();
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        if cache.version != scen.version {
            cache.version = scen.version;
            cache.map.clear();
        }
        let mut tails: Vec<Tail> = Vec::with_capacity(run.len());
        let mut miss_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut misses: Vec<(String, Op)> = Vec::new();
        for (_, op) in run.iter() {
            let key = cache_key(op).expect("deltas never reach flush_reads");
            if let Some(tail) = cache.map.get(&key) {
                tails.push(Tail::Cached(tail.clone()));
            } else if let Some(&m) = miss_of.get(&key) {
                tails.push(Tail::Miss(m));
            } else {
                let m = misses.len();
                miss_of.insert(key.clone(), m);
                misses.push((key, op.clone()));
                tails.push(Tail::Miss(m));
            }
        }
        let results = self.eval_misses(&scen, &misses);
        for ((key, _), tail) in misses.iter().zip(&results) {
            cache.map.insert(key.clone(), tail.clone());
        }
        emit_in_order(run, &tails, &results, out);
        run.clear();
    }

    /// Evaluate the deduplicated cache misses, one item per claim over up
    /// to `threads` workers (inline on the caller with one worker or one
    /// miss). Every result is independent of which worker or workspace
    /// computed it, so the vector is identical to the sequential one.
    fn eval_misses(&self, scen: &Scenario, misses: &[(String, Op)]) -> Vec<String> {
        par_map_chunked(misses, self.threads, 1, None, |(_, op)| {
            // Misses run only under the cache lock `flush_reads` holds, at
            // most `threads` at once, over `threads` workspaces: one is free.
            let mut ws = self.workers.iter().find_map(|w| w.try_lock().ok());
            self.eval(scen, op, ws.as_mut().expect("a free workspace per worker"))
        })
    }

    /// Evaluate one read-only query to its response tail.
    fn eval(&self, scen: &Scenario, op: &Op, ws: &mut ScheduleWorkspace) -> String {
        match op {
            Op::Info => {
                let mut t = String::from("\"ok\":true,\"version\":");
                push_u64(&mut t, scen.version);
                t.push_str(",\"jobs\":");
                push_u64(&mut t, scen.dag.job_count() as u64);
                t.push_str(",\"resources\":");
                push_u64(&mut t, scen.costs.resource_count() as u64);
                t.push_str(",\"alive\":");
                push_u64(&mut t, scen.alive.len() as u64);
                t.push_str(",\"clock\":");
                push_f64(&mut t, scen.snapshot.clock);
                t
            }
            Op::WhatIf { policy, add, remove } => {
                let Some(config) = planning_config(policy, &self.run_cfg) else {
                    return no_plan_tail(policy);
                };
                let query = WhatIfQuery::Modify { add: add.clone(), remove: remove.clone() };
                match what_if(
                    &scen.dag,
                    &scen.costs,
                    &scen.snapshot,
                    &scen.alive,
                    &config,
                    &query,
                    ws,
                ) {
                    Ok(report) => {
                        let mut t = String::from("\"ok\":true,\"version\":");
                        push_u64(&mut t, scen.version);
                        t.push_str(",\"baseline\":");
                        push_f64(&mut t, report.baseline_makespan);
                        t.push_str(",\"hypothetical\":");
                        push_f64(&mut t, report.hypothetical_makespan);
                        t.push_str(",\"gain\":");
                        push_f64(&mut t, report.gain());
                        t
                    }
                    Err(e) => error_tail(&e.to_string()),
                }
            }
            Op::Place { policy, job } => {
                let Some(config) = planning_config(policy, &self.run_cfg) else {
                    return no_plan_tail(policy);
                };
                if job.idx() >= scen.dag.job_count() {
                    return error_tail(&format!("unknown job {job}"));
                }
                aheft_schedule_into(
                    &scen.dag,
                    &scen.costs,
                    scen.snapshot.view(),
                    &scen.alive,
                    &config,
                    ws,
                );
                match ws.assignments().iter().find(|a| a.job == *job) {
                    Some(a) => {
                        let mut t = String::from("\"ok\":true,\"version\":");
                        push_u64(&mut t, scen.version);
                        t.push_str(",\"job\":");
                        push_u64(&mut t, job.idx() as u64);
                        t.push_str(",\"resource\":");
                        push_u64(&mut t, a.resource.idx() as u64);
                        t.push_str(",\"start\":");
                        push_f64(&mut t, a.start);
                        t.push_str(",\"eft\":");
                        push_f64(&mut t, a.finish);
                        t
                    }
                    None => error_tail(&format!(
                        "job {job} is not plannable at this snapshot (finished, running, or pinned)"
                    )),
                }
            }
            Op::Replan { policy } => {
                let Some(config) = planning_config(policy, &self.run_cfg) else {
                    return no_plan_tail(policy);
                };
                let makespan = aheft_schedule_into(
                    &scen.dag,
                    &scen.costs,
                    scen.snapshot.view(),
                    &scen.alive,
                    &config,
                    ws,
                );
                let fp = fingerprint(ws.assignments());
                let mut t = String::from("\"ok\":true,\"version\":");
                push_u64(&mut t, scen.version);
                t.push_str(",\"makespan\":");
                push_f64(&mut t, makespan);
                t.push_str(",\"assignments\":");
                push_u64(&mut t, ws.assignments().len() as u64);
                t.push_str(",\"fingerprint\":\"");
                push_hex16(&mut t, fp);
                t.push('"');
                t
            }
            Op::Delta(_) => unreachable!("deltas never reach eval"),
        }
    }
}

/// Emit every response of the batch in request order, mixing cached and
/// freshly-evaluated tails.
// analyzer: hot
fn emit_in_order(run: &[(u64, Op)], tails: &[Tail], results: &[String], out: &mut String) {
    for ((id, _), tail) in run.iter().zip(tails) {
        match tail {
            Tail::Cached(t) => push_response(out, *id, t),
            Tail::Miss(m) => push_response(out, *id, &results[*m]),
        }
    }
}

/// Error tail for JIT / unknown policy names (they keep no plan to query).
fn no_plan_tail(policy: &str) -> String {
    error_tail(&format!("policy {policy:?} keeps no plan (JIT or unknown name)"))
}

/// FNV-1a over the assignment list — the replan response's schedule
/// identity witness (same idiom as the differential test traces).
fn fingerprint(assignments: &[Assignment]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |h: &mut u64, x: u64| {
        for b in x.to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(PRIME);
        }
    };
    for a in assignments {
        mix(&mut h, a.job.idx() as u64);
        mix(&mut h, a.resource.idx() as u64);
        mix(&mut h, a.start.to_bits());
        mix(&mut h, a.finish.to_bits());
    }
    h
}

/// Append `v` as 16 lowercase hex digits.
fn push_hex16(out: &mut String, v: u64) {
    for i in (0..16).rev() {
        let d = ((v >> (i * 4)) & 0xf) as u32;
        out.push(char::from_digit(d, 16).expect("nibble is < 16"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioParams;

    fn engine(threads: usize) -> QueryEngine {
        QueryEngine::new(
            ScenarioParams { jobs: 60, resources: 6, seed: 11, finished: 0.5 }.build(),
            threads,
        )
    }

    #[test]
    fn info_and_replan_answer() {
        let e = engine(1);
        let mut out = String::new();
        e.process_line(r#"{"id":1,"op":"info"}"#, &mut out);
        assert!(out.starts_with("{\"id\":1,\"ok\":true,\"version\":0,\"jobs\":60"), "{out}");
        out.clear();
        e.process_line(r#"{"id":2,"op":"replan"}"#, &mut out);
        assert!(out.contains("\"makespan\":"), "{out}");
        assert!(out.contains("\"fingerprint\":\""), "{out}");
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_match() {
        let e = engine(1);
        let mut first = String::new();
        e.process_line(r#"{"id":1,"op":"replan"}"#, &mut first);
        let mut second = String::new();
        e.process_line(r#"{"id":9,"op":"replan"}"#, &mut second);
        // Same tail, different id.
        assert_eq!(first.trim_start_matches("{\"id\":1,"), second.trim_start_matches("{\"id\":9,"));
    }

    #[test]
    fn deltas_bump_the_version_and_invalidate_the_cache() {
        let e = engine(1);
        let mut out = String::new();
        e.process_line(r#"{"id":1,"op":"info"}"#, &mut out);
        assert!(out.contains("\"version\":0"));
        out.clear();
        e.process_line(r#"{"id":2,"op":"delta","event":"clock","clock":900.0}"#, &mut out);
        assert_eq!(out, "{\"id\":2,\"ok\":true,\"version\":1}\n");
        out.clear();
        e.process_line(r#"{"id":3,"op":"info"}"#, &mut out);
        assert!(out.contains("\"version\":1"), "{out}");
        assert!(out.contains("\"clock\":900.0"), "{out}");
    }

    #[test]
    fn bad_queries_get_error_responses_not_panics() {
        let e = engine(1);
        let mut out = String::new();
        let lines = [
            "garbage",
            r#"{"id":2,"op":"whatif","remove":[99]}"#,
            r#"{"id":3,"op":"whatif","policy":"minmin"}"#,
            r#"{"id":4,"op":"place","job":100000}"#,
            r#"{"id":5,"op":"delta","event":"left","resource":42}"#,
        ];
        e.process_batch(lines.iter().copied(), &mut out);
        let responses: Vec<&str> = out.lines().collect();
        assert_eq!(responses.len(), 5);
        for r in &responses {
            assert!(r.contains("\"ok\":false"), "{r}");
        }
        // And the engine still answers afterwards.
        out.clear();
        e.process_line(r#"{"id":6,"op":"info"}"#, &mut out);
        assert!(out.contains("\"ok\":true"));
    }

    #[test]
    fn malformed_inputs_are_rejected_and_leave_answers_unchanged() {
        let dirty = engine(1);
        let scen = dirty.store().load();
        let finished = |j: aheft_workflow::JobId| scen.snapshot.is_finished(j);
        let topo = scen.dag.topo_order();
        let done = topo[0].idx();
        let blocked = topo
            .iter()
            .find(|&&j| scen.dag.preds(j).iter().any(|&(p, _)| !finished(p)))
            .expect("a job with an unfinished predecessor")
            .idx();
        let ready = topo
            .iter()
            .find(|&&j| !finished(j) && scen.dag.preds(j).iter().all(|&(p, _)| finished(p)))
            .expect("a job whose inputs are done")
            .idx();
        let finish = |id: u64, job: usize, time: &str| {
            format!(
                r#"{{"id":{id},"op":"delta","event":"finished","job":{job},"resource":0,"time":{time}}}"#
            )
        };
        let malformed = [
            r#"{"id":1,"op":"delta","event":"left","resource":4294967297}"#.to_string(),
            r#"{"id":2,"op":"place","job":4294967296}"#.to_string(),
            r#"{"id":3,"op":"whatif","remove":[4294967298]}"#.to_string(),
            r#"{"id":4,"op":"delta","event":"clock","clock":1e999}"#.to_string(),
            finish(5, blocked, "600"),
            finish(6, done, "600"),
            finish(7, ready, "1e999"),
            format!(r#"{{"id":12,"op":"info","pad":{}}}"#, "[".repeat(200_000)),
        ];
        let mut out = String::new();
        for line in &malformed {
            out.clear();
            dirty.process_line(line, &mut out);
            assert!(out.contains("\"ok\":false"), "{line} -> {out}");
        }
        let valid = [
            r#"{"id":8,"op":"info"}"#,
            r#"{"id":9,"op":"replan"}"#,
            r#"{"id":10,"op":"place","job":45}"#,
            r#"{"id":11,"op":"whatif","remove":[1]}"#,
        ];
        let clean = engine(1);
        for line in valid {
            let (mut got, mut want) = (String::new(), String::new());
            dirty.process_line(line, &mut got);
            clean.process_line(line, &mut want);
            assert_eq!(got, want, "{line}");
        }
    }

    #[test]
    fn batch_splits_and_threads_do_not_change_bytes() {
        let column = vec!["25"; 60].join(",");
        let lines: Vec<String> = vec![
            r#"{"id":1,"op":"replan"}"#.into(),
            format!(r#"{{"id":2,"op":"whatif","add":[[{column}]]}}"#),
            r#"{"id":3,"op":"place","job":45}"#.into(),
            r#"{"id":4,"op":"whatif","remove":[2]}"#.into(),
            r#"{"id":5,"op":"delta","event":"left","resource":3}"#.into(),
            r#"{"id":6,"op":"replan"}"#.into(),
            r#"{"id":7,"op":"whatif","remove":[2]}"#.into(),
            r#"{"id":8,"op":"info"}"#.into(),
        ];
        let mut golden = String::new();
        let e1 = engine(1);
        for l in &lines {
            e1.process_line(l, &mut golden);
        }
        for threads in [1usize, 2, 4] {
            for batch in [1usize, 3, 8] {
                let e = engine(threads);
                let mut out = String::new();
                for chunk in lines.chunks(batch) {
                    e.process_batch(chunk.iter().map(String::as_str), &mut out);
                }
                assert_eq!(out, golden, "threads={threads} batch={batch}");
            }
        }
    }
}

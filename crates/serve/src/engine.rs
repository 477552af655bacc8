//! Batch query evaluation over the scenario store.
//!
//! The engine owns one persistent [`ScheduleWorkspace`] per worker (warm
//! rank cache and what-if scratch table, both keyed on
//! `CostTable::state_id`, so consecutive queries against one scenario
//! version stay on the workspace fast paths) and a per-version memo: a
//! response is a pure function of `(scenario version, canonical query)`,
//! so repeats are answered by a `BTreeMap` lookup, and the baseline plan
//! (the AHEFT pass on the current pool) is a pure function of `(scenario
//! version, planning config)`, so it runs at most once per version and
//! config. `place` and `replan` misses read that plan, and a `whatif`
//! miss runs only its hypothetical pass; those fan out over
//! [`aheft_parcomp::par_map_chunked`].
//!
//! Determinism: the emitted response stream depends only on the request
//! stream — not on batch boundaries, worker count, or which worker
//! evaluated a miss. Workspace warm state never changes an answer (pinned
//! by the core identity suites), the memo is consulted and filled in
//! request order on the calling thread, and deltas and `stats` are
//! barriers that drain pending reads first. The `stats` counters count per
//! request line and per pass, so they share that property.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use aheft_core::aheft::{aheft_schedule_into, AheftConfig, ScheduleWorkspace};
use aheft_core::policy::planning_config;
use aheft_core::runner::RunConfig;
use aheft_core::whatif::{what_if, WhatIfQuery};
use aheft_gridsim::plan::Assignment;
use aheft_parcomp::par_map_chunked;

use crate::protocol::{cache_key, error_tail, push_f64, push_response, push_u64, Op, Request};
use crate::scenario::{Delta, Scenario, ScenarioStore};

/// The largest `threads` the `served` binary passes to
/// [`QueryEngine::new`], which builds one workspace per thread up front.
/// Re-exported because perfbench builds `served` against this crate
/// without a direct `aheft_parcomp` dependency.
pub use aheft_parcomp::MAX_THREADS;

/// A long-lived query engine over one [`ScenarioStore`].
#[derive(Debug)]
pub struct QueryEngine {
    store: ScenarioStore,
    threads: usize,
    workers: Vec<Mutex<ScheduleWorkspace>>,
    cache: Mutex<ResponseCache>,
    counters: Counters,
}

/// What the engine memoizes for one scenario version; all of it is
/// cleared together once the store has published a newer version.
/// `BTreeMap` and `Vec`: deterministic iteration, and the analyzer's
/// hash-collection rule holds.
#[derive(Debug, Default)]
struct ResponseCache {
    version: u64,
    /// Response tails by canonical query key.
    map: BTreeMap<String, String>,
    /// Baseline plans by planning config (at most three: `heft` and
    /// `aheft` share one).
    plans: Vec<(AheftConfig, Baseline)>,
}

/// The AHEFT pass on the current pool of one scenario version.
#[derive(Debug)]
struct Baseline {
    /// Predicted whole-DAG makespan.
    makespan: f64,
    /// The pass's assignments, in placement order.
    assignments: Vec<Assignment>,
}

impl ResponseCache {
    /// Forget everything memoized for another version.
    fn sync(&mut self, version: u64) {
        if self.version != version {
            self.version = version;
            self.map.clear();
            self.plans.clear();
        }
    }
}

/// The baseline memoized for `config`.
fn baseline<'a>(plans: &'a [(AheftConfig, Baseline)], config: &AheftConfig) -> &'a Baseline {
    let found = plans.iter().find(|(c, _)| c == config);
    &found.expect("baselines are filled before misses fan out").1
}

/// Op names the `stats` answer counts requests under, in field order.
const OP_NAMES: [&str; 6] = ["whatif", "place", "replan", "delta", "info", "stats"];

/// Index of `op` in [`OP_NAMES`].
fn op_index(op: &Op) -> usize {
    match op {
        Op::WhatIf { .. } => 0,
        Op::Place { .. } => 1,
        Op::Replan { .. } => 2,
        Op::Delta(_) => 3,
        Op::Info => 4,
        Op::Stats => 5,
    }
}

/// Engine-lifetime counters behind the `stats` op. Each one counts request
/// lines, cache lookups or passes, never batches or workers, so its value
/// depends only on the request stream.
#[derive(Debug, Default)]
struct Counters {
    /// Parsed requests per op, in [`OP_NAMES`] order.
    requests: [AtomicU64; OP_NAMES.len()],
    /// Reads answered from the cache, or from an earlier miss of the same
    /// batch.
    hits: AtomicU64,
    /// Reads evaluated.
    misses: AtomicU64,
    /// AHEFT passes run: baselines and what-if hypotheticals.
    passes: AtomicU64,
    /// Deltas that published a new version.
    deltas: AtomicU64,
    /// `ok:false` answers.
    errors: AtomicU64,
}

/// Add one to `counter`.
fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
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
            threads,
            workers,
            cache: Mutex::new(ResponseCache::default()),
            counters: Counters::default(),
        }
    }

    /// The underlying store (tests drive deltas through it directly).
    pub fn store(&self) -> &ScenarioStore {
        &self.store
    }

    /// Process one request line, appending the response line to `out`.
    pub fn process_line(&self, line: &str, out: &mut String) {
        self.process_batch(std::iter::once(line), out);
    }

    /// Drain a batch of request lines in order, appending one response
    /// line each. Deltas and `stats` act as barriers: pending read-only
    /// queries are flushed (and answered against the pre-delta version)
    /// first.
    pub fn process_batch<'a, I>(&self, lines: I, out: &mut String)
    where
        I: IntoIterator<Item = &'a str>,
    {
        let mut run: Vec<(u64, Op)> = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let request = Request::parse(line);
            if let Ok(Request { op, .. }) = &request {
                bump(&self.counters.requests[op_index(op)]);
            }
            match request {
                Err((id, msg)) => {
                    self.flush_reads(&mut run, out);
                    self.respond(out, id, &error_tail(&msg));
                }
                Ok(Request { id, op: Op::Delta(delta) }) => {
                    self.flush_reads(&mut run, out);
                    self.apply_delta(id, &delta, out);
                }
                Ok(Request { id, op: Op::Stats }) => {
                    self.flush_reads(&mut run, out);
                    self.respond(out, id, &self.stats_tail());
                }
                Ok(Request { id, op }) => run.push((id, op)),
            }
        }
        self.flush_reads(&mut run, out);
    }

    /// Answer a line the transport could not hand over (too long, not
    /// UTF-8) with `{"id":0,"ok":false,…}`, counted like every other
    /// rejection.
    pub fn reject(&self, msg: &str, out: &mut String) {
        self.respond(out, 0, &error_tail(msg));
    }

    /// Frame one response line, counting `ok:false` answers.
    // analyzer: hot
    fn respond(&self, out: &mut String, id: u64, tail: &str) {
        if tail.starts_with("\"ok\":false") {
            bump(&self.counters.errors);
        }
        push_response(out, id, tail);
    }

    /// Apply a delta and answer with the published version (or the typed
    /// rejection).
    fn apply_delta(&self, id: u64, delta: &Delta, out: &mut String) {
        match self.store.apply(delta) {
            Ok(version) => {
                bump(&self.counters.deltas);
                let mut tail = String::from("\"ok\":true,\"version\":");
                push_u64(&mut tail, version);
                self.respond(out, id, &tail);
            }
            Err(e) => self.respond(out, id, &error_tail(&e.to_string())),
        }
    }

    /// The memo, synced to `version`.
    fn cache_at(&self, version: u64) -> MutexGuard<'_, ResponseCache> {
        let mut cache = self.cache.lock().expect("cache lock poisoned");
        cache.sync(version);
        cache
    }

    /// Answer a run of read-only queries against one scenario load:
    /// resolve cache hits, run each missing baseline once, evaluate
    /// deduplicated misses (in parallel when `threads > 1`), fill the
    /// cache in request order, emit in request order.
    fn flush_reads(&self, run: &mut Vec<(u64, Op)>, out: &mut String) {
        if run.is_empty() {
            return;
        }
        let scen = self.store.load();
        let mut cache = self.cache_at(scen.version);
        let mut tails: Vec<Tail> = Vec::with_capacity(run.len());
        let mut miss_of: BTreeMap<String, usize> = BTreeMap::new();
        let mut misses: Vec<(String, Op)> = Vec::new();
        for (_, op) in run.iter() {
            let key = cache_key(op).expect("deltas and stats never reach flush_reads");
            if let Some(tail) = cache.map.get(&key) {
                bump(&self.counters.hits);
                tails.push(Tail::Cached(tail.clone()));
            } else if let Some(&m) = miss_of.get(&key) {
                bump(&self.counters.hits);
                tails.push(Tail::Miss(m));
            } else {
                bump(&self.counters.misses);
                let m = misses.len();
                miss_of.insert(key.clone(), m);
                misses.push((key, op.clone()));
                tails.push(Tail::Miss(m));
            }
        }
        for (_, op) in &misses {
            self.fill_baseline(&scen, &mut cache.plans, op);
        }
        let results = self.eval_misses(&scen, &cache.plans, &misses);
        for ((key, _), tail) in misses.iter().zip(&results) {
            cache.map.insert(key.clone(), tail.clone());
        }
        self.emit_in_order(run, &tails, &results, out);
        run.clear();
    }

    /// Run the baseline pass `op` reads, unless `plans` holds it already.
    /// Called on the calling thread in request order, so the passes (and
    /// the `passes` counter) do not depend on batching or worker count.
    fn fill_baseline(&self, scen: &Scenario, plans: &mut Vec<(AheftConfig, Baseline)>, op: &Op) {
        let policy = match op {
            Op::WhatIf { policy, .. } | Op::Replan { policy } => policy,
            Op::Place { policy, job } if job.idx() < scen.dag.job_count() => policy,
            _ => return,
        };
        let Some(config) = planning_config(policy, &RunConfig::default()) else {
            return;
        };
        if plans.iter().any(|(c, _)| *c == config) {
            return;
        }
        let mut ws = self.free_workspace();
        let makespan = aheft_schedule_into(
            &scen.dag,
            &scen.costs,
            scen.snapshot.view(),
            &scen.alive,
            &config,
            &mut ws,
        );
        bump(&self.counters.passes);
        plans.push((config, Baseline { makespan, assignments: ws.assignments().to_vec() }));
    }

    /// A workspace no other evaluation holds. Passes run only under the
    /// cache lock `flush_reads` holds, at most `threads` at once, over
    /// `threads` workspaces: one is always free.
    fn free_workspace(&self) -> MutexGuard<'_, ScheduleWorkspace> {
        let ws = self.workers.iter().find_map(|w| w.try_lock().ok());
        ws.expect("a free workspace per worker")
    }

    /// Evaluate the deduplicated cache misses, one item per claim over up
    /// to `threads` workers (inline on the caller with one worker or one
    /// miss). Every result is independent of which worker or workspace
    /// computed it, so the vector is identical to the sequential one.
    fn eval_misses(
        &self,
        scen: &Scenario,
        plans: &[(AheftConfig, Baseline)],
        misses: &[(String, Op)],
    ) -> Vec<String> {
        par_map_chunked(misses, self.threads, 1, None, |(_, op)| self.eval(scen, plans, op))
    }

    /// Evaluate one read-only query to its response tail; `plans` holds
    /// the baseline it reads.
    fn eval(&self, scen: &Scenario, plans: &[(AheftConfig, Baseline)], op: &Op) -> String {
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
                let Some(config) = planning_config(policy, &RunConfig::default()) else {
                    return no_plan_tail(policy);
                };
                let query = WhatIfQuery::Modify { add: add.clone(), remove: remove.clone() };
                let hypothetical = what_if(
                    &scen.dag,
                    &scen.costs,
                    &scen.snapshot,
                    &scen.alive,
                    &config,
                    &query,
                    &mut self.free_workspace(),
                );
                match hypothetical {
                    Ok(hypothetical) => {
                        bump(&self.counters.passes);
                        let base = baseline(plans, &config).makespan;
                        let mut t = String::from("\"ok\":true,\"version\":");
                        push_u64(&mut t, scen.version);
                        t.push_str(",\"baseline\":");
                        push_f64(&mut t, base);
                        t.push_str(",\"hypothetical\":");
                        push_f64(&mut t, hypothetical);
                        t.push_str(",\"gain\":");
                        push_f64(&mut t, base - hypothetical);
                        t
                    }
                    Err(e) => error_tail(&e.to_string()),
                }
            }
            Op::Place { policy, job } => {
                let Some(config) = planning_config(policy, &RunConfig::default()) else {
                    return no_plan_tail(policy);
                };
                if job.idx() >= scen.dag.job_count() {
                    return error_tail(&format!("unknown job {job}"));
                }
                let plan = baseline(plans, &config);
                match plan.assignments.iter().find(|a| a.job == *job) {
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
                let Some(config) = planning_config(policy, &RunConfig::default()) else {
                    return no_plan_tail(policy);
                };
                let plan = baseline(plans, &config);
                let mut t = String::from("\"ok\":true,\"version\":");
                push_u64(&mut t, scen.version);
                t.push_str(",\"makespan\":");
                push_f64(&mut t, plan.makespan);
                t.push_str(",\"assignments\":");
                push_u64(&mut t, plan.assignments.len() as u64);
                t.push_str(",\"fingerprint\":\"");
                push_hex16(&mut t, fingerprint(&plan.assignments));
                t.push('"');
                t
            }
            Op::Delta(_) | Op::Stats => unreachable!("deltas and stats never reach eval"),
        }
    }

    /// The `stats` answer: the current version and the engine-lifetime
    /// counters.
    fn stats_tail(&self) -> String {
        let scen = self.store.load();
        let entries = self.cache_at(scen.version).map.len() as u64;
        let c = &self.counters;
        let mut t = String::from("\"ok\":true,\"version\":");
        push_u64(&mut t, scen.version);
        t.push_str(",\"requests\":{");
        for (i, (name, n)) in OP_NAMES.iter().zip(&c.requests).enumerate() {
            if i > 0 {
                t.push(',');
            }
            t.push('"');
            t.push_str(name);
            t.push_str("\":");
            push_u64(&mut t, n.load(Ordering::Relaxed));
        }
        t.push('}');
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        for (name, n) in [
            ("hits", load(&c.hits)),
            ("misses", load(&c.misses)),
            ("entries", entries),
            ("passes", load(&c.passes)),
            ("deltas", load(&c.deltas)),
            ("errors", load(&c.errors)),
        ] {
            t.push_str(",\"");
            t.push_str(name);
            t.push_str("\":");
            push_u64(&mut t, n);
        }
        t
    }

    /// Emit every response of the batch in request order, mixing cached
    /// and freshly-evaluated tails.
    // analyzer: hot
    fn emit_in_order(
        &self,
        run: &[(u64, Op)],
        tails: &[Tail],
        results: &[String],
        out: &mut String,
    ) {
        for ((id, _), tail) in run.iter().zip(tails) {
            match tail {
                Tail::Cached(t) => self.respond(out, *id, t),
                Tail::Miss(m) => self.respond(out, *id, &results[*m]),
            }
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
            r#"{"id":9,"op":"whatif","remove":[2]}"#.into(),
            r#"{"id":10,"op":"stats"}"#.into(),
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

    /// Counter `name` of a `stats` answer from `e`.
    fn counter(e: &QueryEngine, name: &str) -> u64 {
        let mut out = String::new();
        e.process_line(r#"{"id":0,"op":"stats"}"#, &mut out);
        let v: serde::Value = serde_json::from_str(&out).expect("stats answers one JSON line");
        match v.field(name) {
            serde::Value::U64(n) => *n,
            other => panic!("{name} is {other:?} in {out}"),
        }
    }

    #[test]
    fn one_pass_per_distinct_miss_and_one_baseline_per_version_and_config() {
        let e = engine(1);
        let scen = e.store().load();
        let mut unfinished = (0..scen.dag.job_count())
            .filter(|&j| !scen.snapshot.is_finished(aheft_workflow::JobId::from(j)));
        let (a, b) = (unfinished.next().unwrap(), unfinished.next().unwrap());
        let column = vec!["25"; 60].join(",");
        let whatifs = [
            r#"{"id":4,"op":"whatif","remove":[1]}"#.to_string(),
            r#"{"id":5,"op":"whatif","remove":[2,4]}"#.to_string(),
            format!(r#"{{"id":6,"op":"whatif","add":[[{column}]]}}"#),
        ];
        let feed = |line: &str| {
            let mut out = String::new();
            e.process_line(line, &mut out);
            assert!(out.contains("\"ok\":true"), "{line} -> {out}");
        };
        // One baseline, read by the replan and both places, plus one
        // hypothetical pass per distinct what-if.
        feed(r#"{"id":1,"op":"replan"}"#);
        feed(&format!(r#"{{"id":2,"op":"place","job":{a}}}"#));
        feed(&format!(r#"{{"id":3,"op":"place","job":{b},"policy":"heft"}}"#));
        for w in &whatifs {
            feed(w);
        }
        assert_eq!(counter(&e, "passes"), 4);
        // A repeat is a cache hit.
        feed(&whatifs[1]);
        assert_eq!(counter(&e, "passes"), 4);
        // Another planning config has its own baseline.
        feed(r#"{"id":7,"op":"replan","policy":"aheft-noinsert"}"#);
        assert_eq!(counter(&e, "passes"), 5);
        // A new version needs a new baseline.
        feed(r#"{"id":8,"op":"delta","event":"clock","clock":900}"#);
        feed(&whatifs[0]);
        assert_eq!(counter(&e, "passes"), 7);
    }

    #[test]
    fn stats_counts_requests_cache_traffic_and_rejections() {
        let e = engine(1);
        let lines = [
            r#"{"id":1,"op":"info"}"#,
            r#"{"id":2,"op":"info"}"#,
            r#"{"id":3,"op":"replan"}"#,
            "garbage",
            r#"{"id":5,"op":"whatif","policy":"minmin"}"#,
            r#"{"id":6,"op":"replan"}"#,
            r#"{"id":7,"op":"delta","event":"left","resource":3}"#,
            r#"{"id":8,"op":"delta","event":"left","resource":99}"#,
            r#"{"id":9,"op":"stats"}"#,
            r#"{"id":10,"op":"info"}"#,
            r#"{"id":11,"op":"stats"}"#,
        ];
        let mut out = String::new();
        e.process_batch(lines.iter().copied(), &mut out);
        let answers: Vec<&str> = out.lines().collect();
        assert_eq!(answers.len(), lines.len());
        // The delta cleared the cache; the rejected delta, the parse error
        // and the JIT what-if are the three `ok:false` answers.
        assert_eq!(
            answers[8],
            "{\"id\":9,\"ok\":true,\"version\":1,\"requests\":{\"whatif\":1,\"place\":0,\
             \"replan\":2,\"delta\":2,\"info\":2,\"stats\":1},\"hits\":2,\"misses\":3,\
             \"entries\":0,\"passes\":1,\"deltas\":1,\"errors\":3}"
        );
        assert!(
            answers[10].contains("\"info\":3,\"stats\":2},\"hits\":2,\"misses\":4,\"entries\":1")
        );
    }
}

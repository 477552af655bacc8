//! Scheduler-as-a-service: a long-lived query engine over shared
//! copy-on-write scenario snapshots (ISSUE 10).
//!
//! The paper's §3.3 pitches "what…if…" queries as the online
//! system-management face of adaptive rescheduling. This crate turns the
//! one-shot [`aheft_core::whatif`] library call into a daemon:
//!
//! * [`scenario::ScenarioStore`] holds the current scenario —
//!   `Arc`-shared `Dag` / `CostTable` / `Snapshot` behind a version
//!   counter. `apply-delta` publishes a *new* version copy-on-write;
//!   in-flight readers keep their `Arc` and never stall.
//! * [`protocol`] frames line-delimited JSON queries (`whatif`, `place`,
//!   `replan`, `delta`, `info`, `stats`) and renders responses with a
//!   fixed field order, so identical answers are identical bytes.
//! * [`engine::QueryEngine`] evaluates batches: every worker owns a
//!   persistent [`aheft_core::aheft::ScheduleWorkspace`] (warm rank cache
//!   and what-if scratch table keyed on `CostTable::state_id`), repeated
//!   queries against one scenario version hit a per-version response
//!   cache, the current-pool plan runs once per version and planning
//!   config, and cache misses fan out over
//!   [`aheft_parcomp::par_map_chunked`].
//! * [`server`] runs the loop over stdin/stdout or a TCP listener
//!   (hand-rolled framing on `std::net`, `TCP_NODELAY` on every
//!   connection; vendored deps only).
//!
//! Responses are a pure function of `(scenario version, query)`, so the
//! response stream is byte-identical regardless of batch size, arrival
//! interleaving, or worker count — pinned by `tests/serve_identity.rs`
//! and the CI smoke diff.

#![warn(missing_docs)]

pub mod engine;
pub mod protocol;
pub mod scenario;
pub mod server;

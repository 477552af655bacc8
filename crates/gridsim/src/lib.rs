//! # aheft-gridsim
//!
//! Discrete-event grid-simulation substrate for the AHEFT reproduction.
//! The paper evaluates its schedulers in simulation (dynamic Min-Min "is
//! implemented on top of the event-driven simulation framework SimJava");
//! this crate is the from-scratch Rust equivalent of that substrate plus the
//! run-time architecture of the paper's Fig. 1:
//!
//! * [`time`] / [`event`] / [`engine`] — deterministic discrete-event core
//!   (logical clock, binary-heap event queue with stable tie-breaking),
//! * [`resource`] / [`pool`] — the resource model and the paper's grid
//!   dynamics: `max(1, round(δ·R))` new resources join every `Δ` time units,
//! * [`reservation`] — advance-reservation slot tables with insertion-based
//!   gap search (shared by the simulator and the HEFT/AHEFT schedulers),
//! * [`plan`] — schedules as executable plans (assignments with per-resource
//!   queues), produced by `aheft-core` and consumed by the executor,
//! * [`executor`] — the Execution Manager state machine: job lifecycle,
//!   file ledger (completed and in-flight transfers), and the
//!   [`executor::Snapshot`] the planner reschedules from,
//! * [`predictor`] — the actual-runtime model: exact, as the paper's
//!   experiments assume, or noisy for the variance extension,
//! * [`trace`] — execution traces and ASCII Gantt charts (paper Fig. 5),
//! * [`fault`] — failure injection: permanent/transient resource failure
//!   processes and job-level crash faults, on a dedicated RNG stream,
//! * [`share`] — shared-pool accounting for the multi-tenant service
//!   layer: per-tenant resource leases and busy-time integrals,
//! * [`stats`] — streaming statistics used by the experiment harness.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod executor;
pub mod fault;
pub mod plan;
pub mod pool;
pub mod predictor;
pub mod reservation;
pub mod resource;
pub mod share;
pub mod stats;
pub mod time;
pub mod trace;

pub use engine::EventQueue;
pub use event::Event;
pub use executor::{ExecState, JobState, Snapshot, SnapshotView};
pub use fault::{FailureModel, JobFaultModel};
pub use plan::{Assignment, Plan};
pub use pool::{PoolDynamics, PoolState};
pub use reservation::{SlotPolicy, SlotTable};
pub use share::SharedPool;
pub use time::SimTime;

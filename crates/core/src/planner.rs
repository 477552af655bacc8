//! The adaptive Planner of the paper's Fig. 1/Fig. 2.
//!
//! [`AdaptivePlanner`] owns the current schedule `S0` and implements the
//! generic adaptive rescheduling loop body:
//!
//! ```text
//! 5.  P  = estimate(T, R)          — Predictor (exact in the experiments)
//! 6.  S1 = schedule(S0, P, H)      — AHEFT pass over the snapshot
//! 7.  if (S0 == null OR S0.makespan > S1.makespan)
//! 8.      S0 = S1;  9. submit S0
//! ```
//!
//! [`ReschedulePolicy`] decides *which* events trigger an evaluation: the
//! paper evaluates on every resource-pool change; the Sakellariou-Zhao
//! low-cost policy \[14\] and a periodic variant are provided for the
//! ablation benches.
//!
//! The planner owns a [`ScheduleWorkspace`] reused across evaluations, so
//! one candidate evaluation (the common case: the `Keep` branch of line 7)
//! allocates nothing. The executable plan is only materialised when a
//! candidate is accepted — or taken afterwards via
//! [`AdaptivePlanner::last_candidate_outcome`] for forced replacements
//! (resource failures), without re-running the scheduler.

use aheft_gridsim::executor::{Snapshot, SnapshotView};
use aheft_workflow::{CostTable, Dag, ResourceId};

use crate::aheft::{aheft_schedule_into, AheftConfig, RescheduleOutcome, ScheduleWorkspace};
use crate::policy::PolicyEvent;
use crate::schedule::all_resources;

/// When the planner evaluates a reschedule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum ReschedulePolicy {
    /// Evaluate on every resource-pool change (the paper's strategy).
    #[default]
    OnPoolChange,
    /// Evaluate on pool changes *and* performance-variance notifications.
    OnAnyPlannerEvent,
    /// Evaluate at fixed wall-clock intervals (selected-points policy in the
    /// spirit of Sakellariou & Zhao \[14\]).
    Periodic {
        /// Evaluation period in simulation time units.
        period: f64,
    },
    /// Never reschedule — degrades AHEFT to static HEFT (used by tests to
    /// show the two coincide).
    Never,
}

impl ReschedulePolicy {
    /// Does `event` trigger an evaluation under this policy?
    pub fn triggers(&self, event: &PolicyEvent) -> bool {
        let pool_change = matches!(
            event,
            PolicyEvent::PoolGrew { .. }
                | PolicyEvent::ResourceLeft { .. }
                | PolicyEvent::ResourceRejoined { .. }
        );
        match self {
            ReschedulePolicy::OnPoolChange => pool_change,
            // The events the paper's planner subscribes to (§3.3).
            ReschedulePolicy::OnAnyPlannerEvent => {
                pool_change
                    || matches!(event, PolicyEvent::PerformanceVariance { .. } | PolicyEvent::Wake)
            }
            ReschedulePolicy::Periodic { .. } => matches!(event, PolicyEvent::Wake),
            ReschedulePolicy::Never => false,
        }
    }
}

/// Decision returned by one planner evaluation.
#[derive(Debug, Clone)]
pub enum Decision {
    /// `S1` is better: replace `S0` and resubmit.
    Replace(RescheduleOutcome),
    /// `S0` stands; the candidate's predicted makespan is reported for
    /// tracing.
    Keep {
        /// Candidate `S1` predicted makespan that failed to improve.
        candidate_makespan: f64,
    },
}

/// Planner state across one workflow execution.
#[derive(Debug, Clone)]
pub struct AdaptivePlanner {
    /// AHEFT scheduling configuration.
    pub config: AheftConfig,
    /// Evaluation trigger policy.
    pub policy: ReschedulePolicy,
    current_predicted: f64,
    evaluations: usize,
    accepted: usize,
    /// `(clock, predicted)` of the most recent scheduling pass, whose
    /// assignments still sit in `workspace`.
    last_candidate: Option<(f64, f64)>,
    workspace: ScheduleWorkspace,
}

impl AdaptivePlanner {
    /// New planner with the paper's defaults (evaluate on pool change).
    pub fn new(config: AheftConfig, policy: ReschedulePolicy) -> Self {
        Self {
            config,
            policy,
            current_predicted: f64::INFINITY,
            evaluations: 0,
            accepted: 0,
            last_candidate: None,
            workspace: ScheduleWorkspace::new(),
        }
    }

    /// Direct access to the planner's reusable workspace, e.g. to read the
    /// assignments of its most recent pass.
    pub fn workspace_mut(&mut self) -> &mut ScheduleWorkspace {
        &mut self.workspace
    }

    /// Produce the initial full schedule (identical to HEFT) and remember
    /// its predicted makespan as `S0.makespan`.
    pub fn initial_plan(&mut self, dag: &Dag, costs: &CostTable) -> RescheduleOutcome {
        let snapshot = Snapshot::initial(costs.resource_count());
        let alive = all_resources(costs);
        let predicted = aheft_schedule_into(
            dag,
            costs,
            snapshot.view(),
            &alive,
            &self.config,
            &mut self.workspace,
        );
        self.current_predicted = predicted;
        self.last_candidate = Some((0.0, predicted));
        RescheduleOutcome { plan: self.workspace.to_plan(0.0), predicted_makespan: predicted }
    }

    /// Evaluate a reschedule against the current plan (Fig. 2 lines 5–10).
    ///
    /// The `Keep` branch performs zero heap allocation: the candidate lives
    /// entirely in the reused workspace and only its predicted makespan is
    /// reported. An executable plan is built only on `Replace`.
    // analyzer: hot
    pub fn evaluate(
        &mut self,
        dag: &Dag,
        costs: &CostTable,
        view: SnapshotView<'_>,
        alive: &[ResourceId],
    ) -> Decision {
        self.evaluations += 1;
        let predicted =
            aheft_schedule_into(dag, costs, view, alive, &self.config, &mut self.workspace);
        self.last_candidate = Some((view.clock, predicted));
        if predicted < self.current_predicted - 1e-9 {
            self.current_predicted = predicted;
            self.accepted += 1;
            Decision::Replace(RescheduleOutcome {
                plan: self.workspace.to_plan(view.clock),
                predicted_makespan: predicted,
            })
        } else {
            Decision::Keep { candidate_makespan: predicted }
        }
    }

    /// Materialise the candidate of the most recent evaluation (or initial
    /// plan) without re-running the scheduler. Used for *forced*
    /// replacements — after a resource failure the executor must adopt the
    /// candidate even when it did not beat `S0` — which previously cost a
    /// second full snapshot + scheduling pass.
    ///
    /// Deliberately leaves `current_predicted` untouched: a forced adoption
    /// is not an improvement, and future candidates still compare against
    /// the best makespan ever predicted (Fig. 2 line 7).
    pub fn last_candidate_outcome(&self) -> Option<RescheduleOutcome> {
        let (clock, predicted) = self.last_candidate?;
        Some(RescheduleOutcome {
            plan: self.workspace.to_plan(clock),
            predicted_makespan: predicted,
        })
    }

    /// Predicted makespan of the current plan `S0`.
    pub fn current_predicted(&self) -> f64 {
        self.current_predicted
    }

    /// Number of evaluations performed.
    pub fn evaluations(&self) -> usize {
        self.evaluations
    }

    /// Number of accepted replacements.
    pub fn accepted(&self) -> usize {
        self.accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aheft_workflow::sample;

    /// One event of each `PolicyEvent` variant.
    fn one_event_per_variant() -> [PolicyEvent; 9] {
        use aheft_workflow::JobId;
        let (job, resource) = (JobId(0), ResourceId(0));
        [
            PolicyEvent::PoolGrew { joined: 1 },
            PolicyEvent::ResourceLeft { resource, aborted: None },
            PolicyEvent::ResourceRejoined { resource },
            PolicyEvent::PerformanceVariance { job, resource },
            PolicyEvent::Wake,
            PolicyEvent::JobFinished { job, resource, deviation: 0.0 },
            PolicyEvent::TransferArrived { producer: job, to: resource },
            PolicyEvent::JobFaulted { job, resource },
            PolicyEvent::JobReleased { job },
        ]
    }

    #[test]
    fn planner_interest_set() {
        // The paper's planner subscribes to pool changes, performance
        // variance and wake-ups (§3.3), and to nothing else.
        let expected = [true, true, true, true, true, false, false, false, false];
        for (ev, want) in one_event_per_variant().iter().zip(expected) {
            assert_eq!(ReschedulePolicy::OnAnyPlannerEvent.triggers(ev), want, "{ev:?}");
        }
    }

    #[test]
    fn policy_triggers() {
        let policies = [
            ReschedulePolicy::OnPoolChange,
            ReschedulePolicy::Periodic { period: 10.0 },
            ReschedulePolicy::Never,
        ];
        // Which of `policies` each event of `one_event_per_variant` triggers.
        let expected = [
            [true, false, false],
            [true, false, false],
            [true, false, false],
            [false, false, false],
            [false, true, false],
            [false; 3],
            [false; 3],
            [false; 3],
            [false; 3],
        ];
        for (ev, row) in one_event_per_variant().iter().zip(expected) {
            for (policy, want) in policies.iter().zip(row) {
                assert_eq!(policy.triggers(ev), want, "{policy:?} on {ev:?}");
            }
        }
    }

    #[test]
    fn initial_plan_sets_s0_makespan() {
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
        let out = planner.initial_plan(&dag, &costs);
        assert!((out.predicted_makespan - 80.0).abs() < 1e-9);
        assert!((planner.current_predicted() - 80.0).abs() < 1e-9);
    }

    #[test]
    fn evaluate_keeps_plan_when_nothing_changed() {
        // Re-evaluating at clock 0 with the same pool cannot improve on the
        // initial schedule.
        let dag = sample::fig4_dag();
        let costs = sample::fig4_costs_initial();
        let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
        planner.initial_plan(&dag, &costs);
        let snap = Snapshot::initial(3);
        let alive = all_resources(&costs);
        match planner.evaluate(&dag, &costs, snap.view(), &alive) {
            Decision::Keep { candidate_makespan } => {
                assert!((candidate_makespan - 80.0).abs() < 1e-9);
            }
            Decision::Replace(_) => panic!("identical conditions must not replace the plan"),
        }
        assert_eq!(planner.evaluations(), 1);
        assert_eq!(planner.accepted(), 0);
    }

    #[test]
    fn evaluate_replaces_when_pool_grows() {
        // Eight independent unit-cost jobs on one resource: makespan 8·10.
        // Doubling the (homogeneous) pool at clock 0 halves it; the planner
        // must accept.
        let mut b = aheft_workflow::DagBuilder::new();
        for i in 0..8 {
            b.add_job(format!("j{i}"));
        }
        let dag = b.build().unwrap();
        let costs1 =
            aheft_workflow::CostTable::from_dag_comm(&dag, &vec![vec![10.0]; 8], 1.0).unwrap();
        let mut costs2 = costs1.clone();
        costs2.add_resource(&[10.0; 8]).unwrap();

        let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
        let initial = planner.initial_plan(&dag, &costs1);
        assert!((initial.predicted_makespan - 80.0).abs() < 1e-9);
        let snap2 = Snapshot::initial(2);
        match planner.evaluate(&dag, &costs2, snap2.view(), &all_resources(&costs2)) {
            Decision::Replace(out) => {
                assert!((out.predicted_makespan - 40.0).abs() < 1e-9);
                assert_eq!(planner.accepted(), 1);
                assert!((planner.current_predicted() - 40.0).abs() < 1e-9);
            }
            Decision::Keep { .. } => panic!("doubling a homogeneous pool must improve"),
        }
    }

    #[test]
    fn evaluate_rejects_rank_shifted_regression() {
        // The Fig. 4 counter-example: r4's column makes the *candidate*
        // worse (87 > 80); the accept-if-better rule must keep S0.
        let dag = sample::fig4_dag();
        let costs3 = sample::fig4_costs_initial();
        let costs4 = sample::fig4_costs_full();
        let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
        planner.initial_plan(&dag, &costs3);
        let snap4 = Snapshot::initial(4);
        match planner.evaluate(&dag, &costs4, snap4.view(), &all_resources(&costs4)) {
            Decision::Keep { candidate_makespan } => {
                assert!(candidate_makespan > 80.0);
                assert!((planner.current_predicted() - 80.0).abs() < 1e-9);
            }
            Decision::Replace(out) => panic!(
                "candidate {} must not replace the better current plan",
                out.predicted_makespan
            ),
        }
    }

    #[test]
    fn last_candidate_outcome_matches_rejected_candidate() {
        // A forced replacement adopts the rejected candidate verbatim,
        // without a second scheduling pass.
        let dag = sample::fig4_dag();
        let costs3 = sample::fig4_costs_initial();
        let costs4 = sample::fig4_costs_full();
        let mut planner = AdaptivePlanner::new(AheftConfig::default(), ReschedulePolicy::default());
        planner.initial_plan(&dag, &costs3);
        let snap4 = Snapshot::initial(4);
        let Decision::Keep { candidate_makespan } =
            planner.evaluate(&dag, &costs4, snap4.view(), &all_resources(&costs4))
        else {
            panic!("candidate must be kept");
        };
        let forced = planner.last_candidate_outcome().expect("just evaluated");
        assert!((forced.predicted_makespan - candidate_makespan).abs() < 1e-12);
        // Identical to an independent scheduling pass over the same inputs.
        let reference = crate::aheft::aheft_reschedule(
            &dag,
            &costs4,
            &snap4,
            &all_resources(&costs4),
            &AheftConfig::default(),
        );
        assert_eq!(forced.plan.assignments(), reference.plan.assignments());
        // The accept-if-better baseline is untouched by a forced adoption.
        assert!((planner.current_predicted() - 80.0).abs() < 1e-9);
    }
}

//! Seeded nemesis fault schedules and the cross-backend invariant checker.
//!
//! The paper's headline claim is that DataFlasks keeps data available and
//! converges under massive churn and hostile networks. This crate turns
//! that claim into a testable subsystem:
//!
//! * [`NemesisSchedule`] — a pure function of `(NemesisSpec, seed)` (the
//!   same idiom as the workload crate's `OpenLoopSchedule`) emitting timed
//!   fault operations: partitions and heals, asymmetric link cuts,
//!   per-link loss/duplication/reordering windows, latency-distribution
//!   swaps, churn storms (the paper's headline regime) and frame
//!   corruption budgets.
//! * [`NemesisOp::apply_to_plan`] — the backend-agnostic half of applying
//!   an op: everything expressible as a
//!   [`FaultPlan`](dataflasks_core::fault::FaultPlan) verdict replays
//!   identically on the simulator and the async/socket runtimes.
//!   Reordering, latency swaps and churn storms are applied by each
//!   backend's own driver (the simulator can replay all of them; real
//!   runtimes replay the physically possible subset).
//! * [`InvariantChecker`] — consumes cluster observables after each
//!   nemesis phase and records violations of the four invariants the
//!   robustness suite audits: replication bounds, acked-put durability on
//!   majority-alive slices, convergence within a bounded number of
//!   anti-entropy rounds after heal, and corruption accounting
//!   (injected corruptions must surface as `wire_rejects`, never panics).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod invariant;
pub mod schedule;

pub use invariant::{InvariantChecker, InvariantViolation};
pub use schedule::{LatencyShape, NemesisEvent, NemesisOp, NemesisSchedule, NemesisSpec};

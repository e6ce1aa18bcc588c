//! The layered execution core behind [`crate::Engine`].
//!
//! Every engine in the workspace builds on these layers:
//!
//! * [`SlotPlanner`] — maintains the pending `(partition, version)` slot
//!   map **incrementally**: delta updates on `note_processed` /
//!   `refresh_job` instead of rescanning every job's pending set each
//!   round, and an indexed slot vector so the scheduler's choice resolves
//!   in O(log n) instead of an O(n) ordered-map walk.
//! * [`ChargeLedger`] — the single place where simulated-hierarchy
//!   traffic and compute are charged and attributed to jobs, shared by
//!   the CGraph engine's Load/Push stages and the baseline streaming
//!   engine.
//! * [`wavefront`] — the one Load–Trigger–Push round executor: a wave of
//!   up to `k` scheduler-planned slots is fetched and installed in plan
//!   order while the crew's trigger workers drain its chunk tasks, and
//!   the round's modeled time overlaps slot *i+1*'s Load with slot *i*'s
//!   Trigger (two-stage flow-shop makespan; linear for one slot).
//! * [`prefetch`] — the asynchronous-prefetch stage-one scheduler: the
//!   [`PrefetchQueue`] maps partitions to the store's per-shard I/O
//!   lanes and prices multi-slot rounds with the three-stage pipeline
//!   makespan (disk-fetch → memory-install → trigger) when
//!   `prefetch_depth > 0`.
//! * [`crew`] — the long-lived threads every round runs on: persistent
//!   trigger workers, plus per-shard I/O workers behind bounded channels
//!   when `EngineConfig::io_workers > 0`.  Results and modeled costs are
//!   bit-identical at any worker configuration (see the module docs for
//!   the ordering argument).

pub mod crew;
pub mod ledger;
pub mod planner;
pub mod prefetch;
pub mod wavefront;

pub use crew::ExecError;
pub use ledger::{ChargeLedger, JobTiming};
pub use planner::{SlotKey, SlotPlanner};
pub use prefetch::{pipeline_makespan, PrefetchQueue};
pub use wavefront::flowshop_makespan;

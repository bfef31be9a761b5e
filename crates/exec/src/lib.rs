//! # dqs-exec — the execution engine
//!
//! Event-driven execution of integration queries on the simulated platform:
//!
//! * [`workload::Workload`] — a run is a pure function of this description;
//! * [`world::World`] — CPU, disk, memory, wrappers, hash tables, temps;
//! * [`frag`] — runtime query fragments (whole chains and the MF/CF halves
//!   of degraded chains, §4.4);
//! * [`runtime::Engine`] — the engine runtime, split into layered modules:
//!   [`runtime`] (event loop), [`dqp`] (batch-interleaved processing over
//!   the scheduling plan, §3.2), [`mem`] (hash-table memory accounting,
//!   §4.2) and [`replan`] (planning phases and interrupt handling, §3.1);
//! * [`driver`] — the sans-io substrate: the engine runs unchanged on the
//!   discrete-event [`SimDriver`] or the threaded wall-clock
//!   [`RealTimeDriver`];
//! * [`error`] — typed [`RunError`] abort reasons;
//! * [`observe`] — structured, typed engine events ([`EngineEvent`]) and the
//!   [`EngineObserver`] trait, with metrics and JSON-lines sinks;
//! * [`policy::Policy`] — the DQS interface: scheduling plans recomputed at
//!   every interruption;
//! * [`strategies`] — the SEQ / MA / scrambling baselines and the adaptive
//!   SPM strategy (online source permutation over `dqs-adapt`'s rate
//!   observatory). The paper's DSE strategy is `dqs_core::DsePolicy`.
//!
//! ```
//! use dqs_exec::{run_workload, SeqPolicy, Workload};
//! use dqs_plan::{Catalog, QepBuilder};
//!
//! let mut catalog = Catalog::new();
//! let r = catalog.add("R", 500);
//! let s = catalog.add("S", 800);
//! let mut qb = QepBuilder::new();
//! let scan_r = qb.scan(r, 1.0);
//! let scan_s = qb.scan(s, 1.0);
//! let join = qb.hash_join(scan_r, scan_s, 1.0);
//! let workload = Workload::new(catalog, qb.finish(join).unwrap());
//!
//! let metrics = run_workload(&workload, SeqPolicy);
//! assert_eq!(metrics.output_tuples, 800);
//! assert!(metrics.response_time > dqs_sim::SimDuration::ZERO);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dqp;
pub mod driver;
pub mod error;
pub mod frag;
pub mod json;
pub mod mem;
pub mod metrics;
pub mod multi;
pub mod observe;
pub mod policy;
pub mod pool;
pub mod replan;
pub mod runtime;
pub mod spec;
pub mod strategies;
pub mod workload;
pub mod world;

pub use driver::{Driver, RealTimeDriver, Signal, SimDriver};
pub use error::RunError;
pub use frag::{FragId, FragKind, FragSink, FragSource, FragStatus, FragTable, TempId};
pub use metrics::RunMetrics;
pub use multi::{combine, SingleQuery};
pub use observe::{EngineEvent, EngineObserver, JsonLinesSink, MetricsObserver, NullObserver};
pub use policy::{Interrupt, PlanCtx, Policy};
pub use pool::{PoolStats, TaskCtx, WorkerPool};
pub use runtime::{run_workload, run_workload_realtime, Engine};
pub use spec::{ConfigSpec, DelaySpec, JoinSpec, RelationSpec, SpecError, WorkloadSpec};
pub use strategies::{MaPolicy, ScramblingPolicy, SeqPolicy, SpmPolicy};
pub use workload::{EngineConfig, Workload};
pub use world::{sim_source, World};

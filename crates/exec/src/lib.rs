//! A real work-stealing executor for the loadsteal workspace — the
//! paper's subject matter running as genuinely concurrent code.
//!
//! The crate has two personalities:
//!
//! 1. **A rayon-shaped thread pool.** Per-worker [Chase–Lev
//!    deques](deque), a global [injector](injector), randomized victim
//!    selection, parking idle workers, and panic isolation, surfaced
//!    through the same `prelude`/[`join`]/[`scope`] API the old
//!    sequential `compat/rayon` shim faked — so `sim::replicate`, the
//!    verify grids, and every other caller went parallel without a
//!    line of API churn. Results keep input order and per-seed bit
//!    determinism: parallelism changes *when* a replication runs,
//!    never *what* it computes.
//!
//! 2. **A measurable load-stealing system.** Built with
//!    [`PoolBuilder::tracer`], the pool emits `loadsteal.trace.v1`
//!    arrival/completion/steal-attempt/steal-success/migration events
//!    with wall-clock timestamps mapped to model time into per-worker
//!    trace shards, and
//!    [`stealbench`] drives it with the paper's per-processor
//!    Poisson(λ)/Exp(1) workload under the one-probe-per-idle-
//!    transition policy ([`StealMode::OnEmptyOnce`]). The measured
//!    trace flows through the exact pipeline that consumes simulator
//!    traces — `loadsteal report`, the transient comparator, and the
//!    verify harness's executor layer, which checks measured steal
//!    success rates and tail occupancies against the mean-field fixed
//!    point.
//!
//! Concurrency primitives are `std`-only (no external dependencies);
//! `unsafe` is confined to the deque's published algorithm and one
//! audited lifetime-erasure helper. See `docs/executor.md` for the
//! memory-ordering argument and the measured-vs-theory methodology.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod deque;
pub mod injector;
pub mod iter;
mod pool;
pub mod rng;
mod scope_api;
pub mod stealbench;

pub use iter::{parallel_map_on, prelude, IntoParallelIterator, ParallelIterator};
pub use pool::{global, Pool, PoolBuilder, PoolStats, StealMode, WorkerStats};
pub use scope_api::{join, scope, Scope};

/// Number of threads the global pool uses (for rayon API parity).
pub fn current_num_threads() -> usize {
    global().num_threads()
}

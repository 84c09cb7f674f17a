//! Overhead layer: the telemetry pipeline itself.
//!
//! Every other layer trusts the trace: it treats the recorded event
//! stream as ground truth about what the simulator or the executor
//! did. This layer closes the loop on that assumption by checking the
//! *pipeline* that produces the stream:
//!
//! * **sharded-vs-locked equivalence** — a deterministic multi-thread
//!   synthetic stream recorded through the sharded path
//!   ([`loadsteal_obs::ShardedRecorder`]) and through an in-test
//!   `Mutex<CollectingRecorder>` oracle must serialize to
//!   bit-for-bit identical event multisets, and the merged sharded
//!   stream must preserve each shard's emission order and be globally
//!   nondecreasing in `t` (the ordering contract in
//!   `docs/trace-schema.md`);
//! * **pinned-seed stealbench plan** — one executor bench run on a
//!   pinned seed must submit every arrival of the driver's
//!   seed-deterministic plan, trace those arrivals at their planned
//!   workers in plan order, account for every completion its pool
//!   counters report, and merge into a `t`-ordered trace;
//! * **tracing overhead budget** — full tracing on the simulator bench
//!   (every event serialized to NDJSON) must cost at most
//!   [`OVERHEAD_BUDGET`] × the untraced run. The sharded/batched
//!   pipeline exists so observability stays affordable; this check is
//!   the regression gate on that promise (budget table in
//!   `docs/telemetry.md`).
//!
//! The overhead measurement is wall-clock timed, so it and the bench
//! run are marked [`Check::serial`]; the synthetic equivalence check
//! is pure CPU and runs with the concurrent pool.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use loadsteal_core::ModelSpec;
use loadsteal_exec::stealbench::{StealBench, StealBenchConfig};
use loadsteal_obs::{
    CollectingRecorder, Event, NdjsonRecorder, Recorder, ShardSink, ShardedRecorder, SimEventKind,
};
use loadsteal_sim::{run_recorded, run_seeded, sim_config};

use crate::harness::{Check, Outcome, Settings, Tier};

/// Maximum allowed wall-clock ratio of a fully traced simulator run
/// (every event serialized to NDJSON) over the untraced run. The
/// median pair ratio measured on a 2-CPU Intel Xeon container sits
/// near 5.2× (5.05–5.59× over ten quick-tier runs: the engine simulates
/// ≈ 12 M events/s untraced, and the in-place encoder, whose cost is
/// mostly shortest-round-trip float formatting, runs the traced path at
/// ≈ 2.4 M events/s). The budget is the largest observed ratio plus
/// 1.4 (25%) of headroom for slow shared runners. It catches a return
/// to per-event allocating encoding (≈ 10×), a reintroduced per-event
/// sink lock or an unbatched write path.
pub const OVERHEAD_BUDGET: f64 = 7.0;

/// Threads hammering the recorder in the synthetic equivalence check.
const SYN_THREADS: usize = 8;

/// Events emitted per thread in the synthetic stream.
const SYN_EVENTS: usize = 4_000;

/// The deterministic event stream thread `shard` emits: `count` is a
/// 1-based per-shard sequence stamp (so order survives serialization)
/// and the `t` values are strictly increasing within the shard.
fn synthetic_stream(shard: usize) -> Vec<Event> {
    (0..SYN_EVENTS)
        .map(|i| Event::Sim {
            kind: match i % 4 {
                0 => SimEventKind::Arrival,
                1 => SimEventKind::StealAttempt,
                2 => SimEventKind::StealSuccess,
                _ => SimEventKind::Completion,
            },
            t: shard as f64 + i as f64 * 1e-5,
            proc: shard as u32,
            src: None,
            count: i as u32 + 1,
        })
        .collect()
}

/// Record every shard's synthetic stream from its own thread through
/// `record`, which receives `(shard, event)`.
fn hammer(record: impl Fn(usize, &Event) + Sync) {
    std::thread::scope(|scope| {
        for shard in 0..SYN_THREADS {
            let record = &record;
            scope.spawn(move || {
                for ev in synthetic_stream(shard) {
                    record(shard, &ev);
                }
            });
        }
    });
}

/// Sharded-vs-locked equivalence on the synthetic stream: identical
/// serialized multisets, per-shard order preserved after the merge,
/// global `t` order nondecreasing.
fn equivalence_check() -> Outcome {
    let sharded = ShardedRecorder::with_shards(CollectingRecorder::new(), SYN_THREADS);
    hammer(|shard, ev| sharded.record(shard, ev));
    let total = sharded.recorded();
    let merged = sharded.finish().into_events();

    let locked = Mutex::new(CollectingRecorder::new());
    hammer(|_, ev| locked.lock().unwrap().record(ev));
    let interleaved = locked.into_inner().unwrap().into_events();

    let expected = (SYN_THREADS * SYN_EVENTS) as u64;
    if total != expected || merged.len() as u64 != expected {
        return Outcome::Fail(format!(
            "sharded recorder lost events: {total} recorded, {} merged, {expected} emitted",
            merged.len()
        ));
    }

    // Bit-for-bit multiset equality of the serialized streams.
    let canon = |evs: &[Event]| {
        let mut lines: Vec<String> = evs.iter().map(Event::to_json_line).collect();
        lines.sort_unstable();
        lines
    };
    if canon(&merged) != canon(&interleaved) {
        return Outcome::Fail(
            "sharded and locked recorders serialized different event multisets".into(),
        );
    }

    // Per-shard emission order survives the merge (count is the
    // per-shard sequence stamp), and the merge is globally t-ordered.
    let mut next_seq = [1u32; SYN_THREADS];
    let mut last_t = f64::NEG_INFINITY;
    for ev in &merged {
        let Event::Sim { t, proc, count, .. } = ev else {
            return Outcome::Fail("unexpected event kind in merged stream".into());
        };
        if *t < last_t {
            return Outcome::Fail(format!("merged stream regressed in t at proc {proc}"));
        }
        last_t = *t;
        let shard = *proc as usize;
        if *count != next_seq[shard] {
            return Outcome::Fail(format!(
                "shard {shard} order broken: saw seq {count}, expected {}",
                next_seq[shard]
            ));
        }
        next_seq[shard] += 1;
    }
    Outcome::Pass(format!(
        "{SYN_THREADS} threads × {SYN_EVENTS} events: multisets bit-identical, per-shard order and global t-order hold"
    ))
}

/// Stealbench configuration for the pinned-seed run: small enough
/// that one serial wall-clock run costs ≈ 0.1 s.
fn bench_cfg(seed: u64) -> StealBenchConfig {
    StealBenchConfig {
        workers: 8,
        lambda: 0.8,
        horizon: 50.0,
        tau: 0.002,
        seed,
    }
}

/// One pinned-seed bench run checked against the driver's
/// seed-deterministic plan: every planned arrival is submitted and
/// traced at its planned worker in plan order, every completion the
/// pool counts is traced, and the merged trace is `t`-ordered.
fn stealbench_check(settings: &Settings) -> Outcome {
    let cfg = bench_cfg(settings.seed ^ 0x0B5E_C0DE);
    let sink = Arc::new(ShardedRecorder::with_shards(
        CollectingRecorder::new(),
        cfg.workers + 1,
    ));
    let bench = match StealBench::new(&cfg, Arc::clone(&sink) as Arc<dyn ShardSink>) {
        Ok(b) => b,
        Err(e) => return Outcome::Fail(format!("bench setup failed: {e}")),
    };
    let plan: Vec<u32> = bench.plan().iter().map(|a| a.worker as u32).collect();
    bench.drive();
    let out = bench.finish();
    let events = match Arc::try_unwrap(sink) {
        Ok(s) => s.finish().into_events(),
        Err(_) => return Outcome::Fail("trace sink still shared after shutdown".into()),
    };

    if out.submitted != plan.len() as u64 {
        return Outcome::Fail(format!(
            "driver submitted {} of {} planned arrivals",
            out.submitted,
            plan.len()
        ));
    }
    let mut arrivals = Vec::with_capacity(plan.len());
    let mut completions = 0u64;
    let mut last_t = f64::NEG_INFINITY;
    for ev in &events {
        let Event::Sim { kind, t, proc, .. } = ev else {
            continue;
        };
        if *t < last_t {
            return Outcome::Fail("merged bench trace regressed in t".into());
        }
        last_t = *t;
        match kind {
            SimEventKind::Arrival => arrivals.push(*proc),
            SimEventKind::Completion => completions += 1,
            _ => {}
        }
    }
    if arrivals != plan {
        let at = arrivals
            .iter()
            .zip(&plan)
            .take_while(|(a, p)| a == p)
            .count();
        return Outcome::Fail(format!(
            "traced arrivals diverge from the plan at arrival {at}: {} traced, {} planned",
            arrivals.len(),
            plan.len()
        ));
    }
    if completions != out.stats.executed {
        return Outcome::Fail(format!(
            "trace has {completions} completions, pool executed {}",
            out.stats.executed
        ));
    }
    Outcome::Pass(format!(
        "seed {:#x}: {} submitted, traced arrival sequence matches the plan, completions match pool counters, merged trace t-ordered",
        cfg.seed, out.submitted
    ))
}

/// Model-time horizon for the overhead measurement (long enough that
/// the baseline run is well above timer resolution).
fn overhead_horizon(tier: Tier) -> f64 {
    match tier {
        Tier::Quick => 1_500.0,
        Tier::Full => 4_000.0,
    }
}

/// Interleaved untraced/traced run pairs the budget is scored over.
const OVERHEAD_PAIRS: usize = 9;

/// Wall time of `body`, in seconds.
fn timed(body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    body();
    start.elapsed().as_secs_f64()
}

/// Median of a non-empty sample (upper median for even lengths).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Enabled-tracing overhead on the sim bench vs [`OVERHEAD_BUDGET`].
/// Each pair runs the untraced and the traced simulation back to back,
/// so both halves see the same machine load; the score is the median
/// pair ratio, which a single slow or fast run cannot move.
fn overhead_check(settings: &Settings) -> Outcome {
    let spec = ModelSpec::simple_ws(0.9);
    let mut cfg = match sim_config(&spec, settings.n) {
        Ok(c) => c,
        Err(e) => return Outcome::Fail(format!("sim config: {e}")),
    };
    cfg.horizon = overhead_horizon(settings.tier);
    cfg.warmup = 0.1 * cfg.horizon;
    let seed = settings.seed;

    let mut lines = 0u64;
    let (mut baselines, mut traceds, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_PAIRS {
        let baseline = timed(|| {
            std::hint::black_box(run_seeded(&cfg, seed));
        });
        let traced = timed(|| {
            let mut rec = NdjsonRecorder::new(std::io::sink());
            std::hint::black_box(run_recorded(&cfg, seed, &mut rec));
            lines = rec.lines();
        });
        baselines.push(baseline);
        traceds.push(traced);
        ratios.push(traced / baseline);
    }
    let baseline = median(baselines);
    if baseline < 1e-3 {
        return Outcome::Skip(format!(
            "baseline run too fast to time reliably ({:.2} ms)",
            baseline * 1e3
        ));
    }
    let ratio = median(ratios);
    let msg = format!(
        "traced {lines} events: {:.1} ms vs {:.1} ms untraced (medians of {OVERHEAD_PAIRS} interleaved pairs), median pair ratio {ratio:.2}× (budget {OVERHEAD_BUDGET}×)",
        median(traceds) * 1e3,
        baseline * 1e3,
    );
    if ratio <= OVERHEAD_BUDGET {
        Outcome::Pass(msg)
    } else {
        Outcome::Fail(msg)
    }
}

/// Assemble the overhead checks. The two wall-clock measurements are
/// serial; the synthetic equivalence check is not.
pub fn checks(settings: &Settings) -> Vec<Check> {
    let mut checks = Vec::new();
    checks.push(Check::new(
        "overhead",
        "sharded-vs-locked",
        equivalence_check,
    ));
    let s = settings.clone();
    checks.push(Check::serial(
        "overhead",
        "stealbench-pinned-seed",
        move || stealbench_check(&s),
    ));
    let s = settings.clone();
    checks.push(Check::serial("overhead", "tracing-budget", move || {
        overhead_check(&s)
    }));
    checks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_checks_in_the_overhead_group() {
        let s = Settings::tiny(5);
        let cs = checks(&s);
        assert_eq!(cs.len(), 3);
        for c in &cs {
            assert_eq!(c.group, "overhead");
        }
        assert!(!cs[0].serial, "equivalence check is pure CPU");
        assert!(cs[1].serial && cs[2].serial, "timed checks must be serial");
    }

    #[test]
    fn synthetic_equivalence_holds() {
        assert!(
            matches!(equivalence_check(), Outcome::Pass(_)),
            "{:?}",
            equivalence_check()
        );
    }

    #[test]
    fn pinned_seed_stealbench_matches_its_plan() {
        let s = Settings::tiny(11);
        let out = stealbench_check(&s);
        assert!(matches!(out, Outcome::Pass(_)), "{out:?}");
    }
}

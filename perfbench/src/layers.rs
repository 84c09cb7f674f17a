//! The traced run: the benchmark's inputs through the library crates'
//! public functions with every layer call counted or timed from here,
//! the plain runs those timings are attributed against, the set-up
//! round in process, and replays of single operations at the
//! workloads' sizes.

use std::collections::BinaryHeap;
use std::fs::File;
use std::hint::black_box;
use std::time::Instant;

use loadsteal_core::fixed_point::FixedPointOptions;
use loadsteal_core::models::MeanFieldModel;
use loadsteal_core::ModelSpec;
use loadsteal_exec::deque::deque;
use loadsteal_exec::prelude::*;
use loadsteal_exec::Pool;
use loadsteal_obs::{CountingRecorder, Event as ObsEvent, NdjsonRecorder, Recorder, TraceHeader};
use loadsteal_queueing::dist::exp_sample;
use loadsteal_sim::{
    run_recorded, run_seeded, CalendarQueue, Event, EventKind, EventQueue, SimConfig, SimResult,
};
use loadsteal_trace::{
    read_bytes, transient, JobAnalysis, ParsedTrace, ReadMode, Timeline, TimelineConfig,
    TransientAnalysis, TransientOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::plan::{
    self, SimCase, SETUP_SAMPLE_DT, SETUP_SIM, SETUP_SOLVE_MODEL, SIM_CASES, TRACE, TRACE_SAMPLE_DT,
};
use crate::{baseline, solve as solve_layer, timed, Check, Metrics};

/// Workers of the benchmark-built pool the executor probe runs on.
const EXEC_WORKERS: usize = 2;

/// Replications the executor probe splits the n = 128 run into.
const EXEC_RUNS: usize = 8;

/// In-process set-up rounds; the median is reported.
const SETUP_ROUNDS: usize = 7;

/// What the traced run reports.
pub struct LayersOut {
    /// Wall time of the instrumented pass over the CLI pass's work.
    pub wall_traced_s: f64,
    /// Median wall time of the set-up round's work done in process.
    pub setup_inproc_s: f64,
    pub metrics: Metrics,
    pub checks: Vec<Check>,
}

pub fn run(seed: u64, cli_trace: &str, work: &str) -> LayersOut {
    let cases = plan::solve_cases();
    let inproc_trace = format!("{work}/inproc-trace.ndjson");
    let mut m = Metrics::default();

    // Plain runs, the bases that traced timings are attributed against.
    // The simulate base runs in this thread, like the replays it is
    // compared with.
    let (solve_plain_s, converged) = solve_layer::untraced(&cases);
    let c = &SIM_CASES[0];
    let cfg = c.config();
    let (events, sim_plain_s) = timed(|| {
        (0..c.runs as u64)
            .map(|i| run_seeded(&cfg, seed.wrapping_add(i)).events_processed)
            .sum::<u64>()
    });

    let mut checks = vec![converged];
    let mut check = |name: &str, res: Result<f64, String>| {
        checks.push(Check {
            name: name.into(),
            ok: res.is_ok(),
            detail: res.as_ref().err().cloned().unwrap_or_default(),
        });
        res.unwrap_or(0.0)
    };
    let wall_traced_s = solve_layer::traced(&cases, solve_plain_s, &mut m)
        + simulate_traced(seed, &mut m)
        + write_trace(seed, &TRACE, TRACE_SAMPLE_DT, &inproc_trace, Some(&mut m))
        + check(
            "layers.cli_trace_analyzes",
            analyze(cli_trace, TRACE.n, Some(&mut m)),
        );

    let rounds: Result<Vec<f64>, String> = (0..SETUP_ROUNDS)
        .map(|_| setup_round(seed, &inproc_trace))
        .collect();
    let _ = std::fs::remove_file(&inproc_trace);
    let mut rounds = rounds.unwrap_or_else(|e| {
        check("layers.setup_trace_analyzes", Err(e));
        vec![f64::NAN]
    });
    rounds.sort_by(f64::total_cmp);

    replays(seed, sim_plain_s * 1e9 / events as f64, &mut m);
    exec_probe(seed, &mut m);
    deque_probes(&mut m);
    baseline::measure(seed, &mut m);
    LayersOut {
        wall_traced_s,
        setup_inproc_s: rounds[rounds.len() / 2],
        metrics: m,
        checks,
    }
}

/// The set-up round's work in process (see `plan::SETUP_SIM`): the
/// solves, the two short simulates and the three analyses of the short
/// trace. Returns the wall time, or why the short trace could not be
/// analyzed.
fn setup_round(seed: u64, trace: &str) -> Result<f64, String> {
    let (analyzed, wall) = timed(|| {
        let spec = ModelSpec::parse(SETUP_SOLVE_MODEL).expect("the set-up model parses");
        black_box(spec.fixed_point().ok());
        let companion = ModelSpec::simple_ws(SETUP_SIM.lambda);
        black_box(companion.fixed_point().ok());
        black_box(run_recorded(
            &SETUP_SIM.config(),
            seed,
            &mut CountingRecorder::new(),
        ));
        write_trace(seed, &SETUP_SIM, SETUP_SAMPLE_DT, trace, None);
        analyze(trace, SETUP_SIM.n, None)
    });
    analyzed.map(|_| wall)
}

/// The `queueing`/`sim` counts: each simulate configuration run in
/// process with a counting recorder, seeded as `simulate` seeds its
/// runs. Returns the wall time.
fn simulate_traced(seed: u64, m: &mut Metrics) -> f64 {
    let (counted, wall) = timed(|| {
        SIM_CASES
            .iter()
            .map(|c| {
                let cfg = c.config();
                let mut rec = CountingRecorder::new();
                let events: u64 = (0..c.runs as u64)
                    .map(|i| run_recorded(&cfg, seed.wrapping_add(i), &mut rec).events_processed)
                    .sum();
                (events, rec.counts())
            })
            .collect::<Vec<_>>()
    });
    let (events, c) = &counted[0];
    m.add("sim.events", *events as f64, "count");
    m.add("sim.events.arrival", c.arrivals as f64, "count");
    m.add("sim.events.completion", c.completions as f64, "count");
    m.add("sim.events.steal_attempt", c.steal_attempts as f64, "count");
    m.add("sim.events.migration", c.migrations as f64, "count");
    m.add(
        "sim.steal.hit_rate",
        c.steal_successes as f64 / c.steal_attempts as f64,
        "ratio",
    );
    wall
}

/// The `exec` counters: the n = 128 work split into [`EXEC_RUNS`]
/// replications, as `simulate --runs 8` would run it, under `install`
/// on a benchmark-built pool.
fn exec_probe(seed: u64, m: &mut Metrics) {
    let c = &SIM_CASES[0];
    let mut cfg = c.config();
    cfg.horizon = c.horizon / EXEC_RUNS as f64;
    cfg.warmup = cfg.horizon / 10.0;
    let pool = Pool::builder().num_threads(EXEC_WORKERS).build();
    let results: Vec<SimResult> = pool.install(|| {
        (0..EXEC_RUNS as u64)
            .into_par_iter()
            .map(|i| run_seeded(&cfg, seed.wrapping_add(i)))
            .collect()
    });
    black_box(results);
    let stats = pool.shutdown();
    m.add("exec.tasks_executed", stats.executed as f64, "count");
    m.add("exec.steal_attempts", stats.steal_attempts as f64, "count");
    m.add(
        "exec.steal.hit_rate",
        if stats.steal_attempts == 0 {
            0.0
        } else {
            stats.steal_successes as f64 / stats.steal_attempts as f64
        },
        "ratio",
    );
}

/// A recorder that times every `record` of the wrapped one.
struct Timed<R> {
    inner: R,
    ns: u64,
    events: u64,
}

impl<R: Recorder> Recorder for Timed<R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, ev: &ObsEvent) {
        let t0 = Instant::now();
        self.inner.record(ev);
        self.ns += t0.elapsed().as_nanos() as u64;
        self.events += 1;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// A traced simulate in process: the mean-field companion solve the CLI
/// performs, then the run, both into `rec`. Returns the wall time of the
/// run alone and of the whole.
fn simulate_into<R: Recorder>(seed: u64, case: &SimCase, dt: f64, rec: &mut R) -> (f64, f64) {
    let mut cfg: SimConfig = case.config();
    cfg.trace_jobs = true;
    cfg.sample_tails = Some(dt);
    let model = ModelSpec::simple_ws(case.lambda)
        .mean_field()
        .expect("simple WS has mean-field equations");
    let (sim_wall, wall) = timed(|| {
        let fp = loadsteal_core::solve_traced(&model, &FixedPointOptions::default(), rec)
            .expect("the companion solve converges");
        black_box(fp);
        let (_, sim_wall) = timed(|| run_recorded(&cfg, seed, rec));
        rec.flush();
        sim_wall
    });
    (sim_wall, wall)
}

/// Write `case`'s trace in process to `path` (header first, as the CLI
/// does). With `m`, every event's encoding is timed (`obs.*`). Returns
/// the wall time.
fn write_trace(seed: u64, case: &SimCase, dt: f64, path: &str, m: Option<&mut Metrics>) -> f64 {
    let header = TraceHeader {
        model: Some(ModelSpec::simple_ws(case.lambda).to_string()),
        n: Some(case.n as u64),
        seed: Some(seed),
        runs: Some(1),
        ..TraceHeader::default()
    };
    let file = File::create(path).expect("the work directory is writable");
    let mut ndjson = NdjsonRecorder::new(file);
    ndjson.write_line(&header.to_json_line());
    let (ndjson, wall) = match m {
        None => {
            let (_, wall) = simulate_into(seed, case, dt, &mut ndjson);
            (ndjson, wall)
        }
        Some(m) => {
            let mut rec = Timed {
                inner: ndjson,
                ns: 0,
                events: 0,
            };
            let (sim_wall, wall) = simulate_into(seed, case, dt, &mut rec);
            let bytes = std::fs::metadata(path).map(|md| md.len()).unwrap_or(0);
            let events = rec.events as f64;
            m.add("obs.encode.ns_per_event", rec.ns as f64 / events, "ns");
            m.add("obs.encode.bytes_per_event", bytes as f64 / events, "B");
            m.add("obs.encode.share", rec.ns as f64 * 1e-9 / sim_wall, "ratio");
            (rec.inner, wall)
        }
    };
    let (_, err) = ndjson.into_inner();
    assert!(err.is_none(), "in-process trace write failed: {err:?}");
    wall
}

fn read_strict(bytes: &[u8]) -> (Result<ParsedTrace, String>, f64) {
    timed(|| read_bytes(bytes, ReadMode::Strict).map_err(|e| format!("strict parse: {e}")))
}

/// The work of `report`, `jobs` and `transient` on the trace at `path`
/// of an `n`-processor run, each reading the file itself as the three
/// processes do. With `m`, each layer call is timed (`trace.*`).
/// Returns the wall time, or why the trace could not be analyzed.
fn analyze(path: &str, n: usize, m: Option<&mut Metrics>) -> Result<f64, String> {
    let mut parse_s = 0.0;
    let mut lines = 0;
    let mut size = 0;
    let (builds, wall) = timed(|| -> Result<_, String> {
        let mut read = || {
            let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
            let (parsed, s) = read_strict(&bytes);
            let parsed = parsed?;
            parse_s += s;
            lines = parsed.lines;
            size = bytes.len();
            Ok::<_, String>(parsed)
        };
        // report
        let parsed = read()?;
        let (tl, timeline_s) =
            timed(|| Timeline::build(&parsed.events, &TimelineConfig::default()));
        let spec = header_spec(&parsed)?;
        black_box((tl, spec.fixed_point().ok()));
        // jobs
        let parsed = read()?;
        let (jobs, jobs_s) = timed(|| JobAnalysis::build(&parsed.events, 0.0));
        black_box(jobs);
        // transient
        let parsed = read()?;
        let groups = transient::group_by_time(&transient::extract_samples(&parsed.events));
        let (dt, t_end) = transient::grid_of(&groups).ok_or("the trace has no tail samples")?;
        let model = spec.mean_field().map_err(|e| e.to_string())?;
        let ode = loadsteal_core::trajectory::sample_tails(
            &model,
            &model.empty_state(),
            t_end + 0.5 * dt,
            dt,
        )
        .map_err(|e| format!("ODE reference: {e}"))?;
        let fixed_point = spec.fixed_point().ok().map(|fp| fp.task_tails);
        let opts = TransientOptions::new(n);
        let (tr, transient_s) =
            timed(|| TransientAnalysis::from_groups(&groups, &ode, fixed_point.as_deref(), &opts));
        black_box(tr);
        Ok((timeline_s, jobs_s, transient_s))
    });
    let builds = builds?;
    if let Some(m) = m {
        let reads = 3.0;
        m.add("trace.bytes", size as f64, "B");
        m.add("trace.lines", lines as f64, "count");
        m.add(
            "trace.parse.ns_per_line",
            parse_s * 1e9 / (reads * lines as f64),
            "ns",
        );
        m.add(
            "trace.parse.mb_per_s",
            reads * size as f64 / 1e6 / parse_s,
            "MB/s",
        );
        m.add("trace.timeline.build_s", builds.0, "s");
        m.add("trace.jobs.build_s", builds.1, "s");
        m.add("trace.transient.build_s", builds.2, "s");
    }
    Ok(wall)
}

fn header_spec(parsed: &ParsedTrace) -> Result<ModelSpec, String> {
    let model = parsed
        .header
        .as_ref()
        .and_then(|h| h.model.as_deref())
        .ok_or("the trace has no header naming its model")?;
    ModelSpec::parse(model).map_err(|e| format!("header model {model:?}: {e}"))
}

/// Mean ns of one `exp_sample` draw (the engine's RNG path).
fn exp_draw_ns(seed: u64) -> f64 {
    const DRAWS: u32 = 1 << 23;
    let mut rng = SmallRng::seed_from_u64(seed);
    let (sum, s) = timed(|| {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += exp_sample(&mut rng, 1.0);
        }
        acc
    });
    black_box(sum);
    s * 1e9 / DRAWS as f64
}

/// Mean ns of one pop + push on a future-event list holding `pending`
/// events (the classic hold model: each popped event is rescheduled an
/// Exp(1) step later, so the set size stays constant). Step sizes come
/// from a small precomputed ring, so the loop times the queue alone.
fn hold_ns<Q: EventQueue>(pending: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let steps: Vec<f64> = (0..4096).map(|_| exp_sample(&mut rng, 1.0)).collect();
    let mut q = Q::with_hint(pending);
    let kind = EventKind::Completion { proc: 0 };
    for seq in 0..pending as u64 {
        let time = exp_sample(&mut rng, 1.0);
        q.push(Event { time, seq, kind });
    }
    let hold = |q: &mut Q, from: usize, count: usize| {
        for i in from..from + count {
            let ev = q.pop().expect("hold keeps the set non-empty");
            let seq = (pending + i) as u64;
            let time = ev.time + steps[i % steps.len()];
            q.push(Event { time, seq, kind });
        }
    };
    // Let the set reach its steady shape (and the calendar retune)
    // before timing.
    hold(&mut q, 0, 4 * pending);
    let (_, s) = timed(|| hold(&mut q, 4 * pending, ops));
    black_box(q.len());
    s * 1e9 / ops as f64
}

/// Replays of single operations at the workloads' sizes, and the
/// attribution of the engine's ns per event they give (`engine_ns`:
/// the untraced n = 128 runs in process, one after another).
fn replays(seed: u64, engine_ns: f64, m: &mut Metrics) {
    let small = SIM_CASES[0].pending_events();
    let large = SIM_CASES[1].pending_events();
    let draw = exp_draw_ns(seed);
    let cal_small = hold_ns::<CalendarQueue>(small, 4 << 20, seed);
    let cal_large = hold_ns::<CalendarQueue>(large, 2 << 20, seed);
    let heap_small = hold_ns::<BinaryHeap<Event>>(small, 4 << 20, seed);
    // Per processed event the engine pops it, schedules about one
    // successor and draws about one exponential for it.
    let attributed = draw + cal_small;
    m.add("queueing.exp_draw.ns", draw, "ns");
    m.add("sim.calendar.push_pop_ns.n128", cal_small, "ns");
    m.add("sim.calendar.push_pop_ns.n65536", cal_large, "ns");
    m.add("sim.heap.push_pop_ns.n128", heap_small, "ns");
    m.add("sim.engine.ns_per_event", engine_ns, "ns");
    m.add(
        "sim.engine.other_ns_per_event",
        engine_ns - attributed,
        "ns",
    );
    m.add("sim.attributed_share", attributed / engine_ns, "ratio");
}

/// Single-thread costs of the executor's deque operations.
fn deque_probes(m: &mut Metrics) {
    const OPS: u64 = 1 << 20;
    let (w, s) = deque::<u64>();
    let (_, push_pop) = timed(|| {
        for i in 0..OPS {
            w.push(i);
        }
        for _ in 0..OPS {
            black_box(w.pop());
        }
    });
    for i in 0..OPS {
        w.push(i);
    }
    let (_, steal) = timed(|| {
        for _ in 0..OPS {
            black_box(s.steal().success());
        }
    });
    m.add("exec.deque.push_pop_ns", push_pop * 1e9 / OPS as f64, "ns");
    m.add("exec.deque.steal_ns", steal * 1e9 / OPS as f64, "ns");
}

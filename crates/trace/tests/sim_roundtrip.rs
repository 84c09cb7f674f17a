//! End-to-end: run the real simulator with an NDJSON recorder, parse
//! the trace back, and check the reconstructed timeline against the
//! simulator's own statistics — and that analyzers attached live to a
//! run see exactly what they see through the trace file.

use loadsteal_obs::{Event, NdjsonRecorder, Recorder};
use loadsteal_sim::{run_recorded, SimConfig};
use loadsteal_trace::transient::TailSamples;
use loadsteal_trace::{
    read_into, read_str, JobReplay, ReadMode, Timeline, TimelineConfig, TimelineReplay,
};

fn traced_run(cfg: &SimConfig, seed: u64) -> (String, loadsteal_sim::SimResult) {
    let mut rec = NdjsonRecorder::new(Vec::new());
    let result = run_recorded(cfg, seed, &mut rec);
    Recorder::flush(&mut rec);
    let (buf, err) = rec.into_inner();
    assert!(err.is_none());
    (String::from_utf8(buf).unwrap(), result)
}

#[test]
fn every_simulator_line_parses_in_strict_mode() {
    let mut cfg = SimConfig::paper_default(8, 0.7);
    cfg.horizon = 2_000.0;
    cfg.warmup = 200.0;
    cfg.heartbeat_every = 10_000;
    let (trace, _) = traced_run(&cfg, 42);
    let parsed =
        read_str(&trace, ReadMode::Strict).unwrap_or_else(|e| panic!("strict parse failed: {e}"));
    assert_eq!(parsed.events.len(), parsed.lines);
    assert!(parsed.lines > 1_000, "expected a substantial trace");
    assert!(parsed.skipped.is_empty());
}

#[test]
fn timeline_matches_simulator_statistics() {
    let mut cfg = SimConfig::paper_default(16, 0.8);
    cfg.horizon = 5_000.0;
    cfg.warmup = 500.0;
    let (trace, result) = traced_run(&cfg, 7);
    let parsed = read_str(&trace, ReadMode::Strict).unwrap();
    let tl = Timeline::build(
        &parsed.events,
        &TimelineConfig {
            warmup: cfg.warmup,
            ..TimelineConfig::default()
        },
    );

    assert_eq!(tl.n_procs, 16);
    assert_eq!(tl.depth_underflows, 0, "trace must replay consistently");
    // Whole-trace totals equal the engine's own counters.
    assert_eq!(tl.counts.arrivals, result.tasks_arrived);
    assert_eq!(tl.counts.completions, result.tasks_completed);
    assert_eq!(tl.counts.steal_attempts, result.steal_attempts);
    assert_eq!(tl.counts.steal_successes, result.steal_successes);
    assert_eq!(tl.counts.tasks_migrated, result.tasks_migrated);

    // Measured arrival rate ≈ λ (sampling noise only).
    let lambda_hat = tl.arrival_rate();
    assert!(
        (lambda_hat - 0.8).abs() < 0.05,
        "λ̂ = {lambda_hat}, expected ≈ 0.8"
    );

    // Little's-law sojourn from the replayed queues tracks the
    // simulator's directly measured mean sojourn.
    let w_trace = tl.mean_sojourn_little().expect("arrivals were measured");
    let w_sim = result.mean_sojourn();
    assert!(
        (w_trace - w_sim).abs() / w_sim < 0.15,
        "Little's law {w_trace} vs measured {w_sim}"
    );

    // Replayed time-averaged tails track the engine's LoadHistogram.
    for (i, &s) in result.load_tails.iter().enumerate().take(4).skip(1) {
        let replayed = tl.tails.get(i).copied().unwrap_or(0.0);
        assert!(
            (replayed - s).abs() < 0.05,
            "s_{i}: replayed {replayed} vs engine {s}"
        );
    }
}

#[test]
fn lossy_mode_recovers_a_corrupted_trace() {
    let mut cfg = SimConfig::paper_default(4, 0.5);
    cfg.horizon = 500.0;
    cfg.warmup = 50.0;
    let (trace, _) = traced_run(&cfg, 3);
    // Corrupt every 10th line.
    let mangled: String = trace
        .lines()
        .enumerate()
        .map(|(i, l)| {
            if i % 10 == 0 {
                format!("{}\n", &l[..l.len() / 2])
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    assert!(read_str(&mangled, ReadMode::Strict).is_err());
    let parsed = read_str(&mangled, ReadMode::Lossy).unwrap();
    assert!(!parsed.skipped.is_empty());
    assert_eq!(parsed.events.len() + parsed.skipped.len(), parsed.lines);
    // ~90% of lines survive.
    assert!(parsed.events.len() * 10 >= parsed.lines * 8);
}

/// Hands every event to each of the three analyzers.
struct Analyzers {
    timeline: TimelineReplay,
    jobs: JobReplay,
    samples: TailSamples,
}

impl Analyzers {
    fn new(warmup: f64) -> Self {
        Self {
            timeline: TimelineReplay::new(&TimelineConfig {
                warmup,
                ..TimelineConfig::default()
            }),
            jobs: JobReplay::new(warmup),
            samples: TailSamples::default(),
        }
    }

    /// Every result, `Debug`-rendered: floats print as their shortest
    /// round-trip form, so equal text means bit-identical fields.
    fn finish(self) -> [String; 3] {
        [
            format!("{:?}", self.timeline.finish()),
            format!("{:?}", self.jobs.finish()),
            format!("{:?}", self.samples.finish()),
        ]
    }
}

impl Recorder for Analyzers {
    fn record(&mut self, ev: &Event) {
        self.timeline.record(ev);
        self.jobs.record(ev);
        self.samples.record(ev);
    }
}

#[test]
fn live_analysis_equals_the_trace_file_route() {
    let mut cfg = SimConfig::paper_default(16, 0.8);
    cfg.horizon = 400.0;
    cfg.warmup = 40.0;
    cfg.trace_jobs = true;
    cfg.sample_tails = Some(1.0);

    let mut live = Analyzers::new(cfg.warmup);
    run_recorded(&cfg, 7, &mut live);
    let live = live.finish();

    let (trace, _) = traced_run(&cfg, 7);
    let mut offline = Analyzers::new(cfg.warmup);
    let parsed = read_into(trace.as_bytes(), ReadMode::Strict, &mut offline).unwrap();
    assert!(parsed.lines > 10_000, "expected a substantial trace");
    let offline = offline.finish();

    for (what, (l, o)) in ["timeline", "jobs", "transient groups"]
        .iter()
        .zip(live.iter().zip(&offline))
    {
        assert_eq!(l, o, "{what}: live vs trace file");
    }
    // The run really exercised every analyzer.
    assert!(live[1].contains("longest_chain_job: Some("), "{}", live[1]);
    assert!(live[2].len() > 1_000, "{}", live[2]);
}

/// FNV-1a (64-bit): a stable digest for pinning trace bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The `replicate_done` line carries wall-clock fields (`wall_ms`,
/// `events_per_sec`); cut it after its seed so the rest of the trace
/// can be pinned.
fn without_wall_clock(trace: &str) -> String {
    trace
        .lines()
        .map(|line| match line.find(",\"wall_ms\":") {
            Some(at) if line.starts_with("{\"ev\":\"replicate_done\"") => {
                format!("{}}}\n", &line[..at])
            }
            _ => format!("{line}\n"),
        })
        .collect()
}

/// Pins every rendered byte of a fixed-seed trace: a header, then two
/// small runs with job tracing, tail sampling and frequent heartbeats,
/// one with transfer delays (job migrations carry `delay`) and one with
/// batch steals (migrations carry `count`), each closed by its
/// `replicate_done` line. The digest was captured before the encoder
/// was rewritten to append in place; any drift in float, integer,
/// escape or field rendering changes it.
#[test]
fn fixed_seed_trace_bytes_are_pinned() {
    use loadsteal_obs::{SharedRecorder, TraceHeader};
    use loadsteal_sim::{replicate_recorded, StealPolicy, TransferTime};

    let mut delayed = SimConfig::paper_default(6, 0.75);
    delayed.horizon = 60.0;
    delayed.warmup = 6.0;
    delayed.heartbeat_every = 64;
    delayed.trace_jobs = true;
    delayed.sample_tails = Some(2.5);
    delayed.transfer = Some(TransferTime::exponential(4.0));
    let mut batched = delayed.clone();
    batched.transfer = None;
    batched.policy = StealPolicy::OnEmpty {
        threshold: 4,
        choices: 2,
        batch: 2,
    };

    let mut ndjson = NdjsonRecorder::new(Vec::new());
    ndjson.write_line(
        &TraceHeader {
            model: Some("golden \"trace\"\tλ=0.75".into()),
            n: Some(6),
            seed: Some(u64::MAX),
            runs: Some(2),
            sample: None,
        }
        .to_json_line(),
    );
    let shared = SharedRecorder::new(ndjson);
    replicate_recorded(&delayed, 1, 11, &shared);
    replicate_recorded(&batched, 1, 12, &shared);
    let (buf, err) = shared.try_into_inner().expect("last handle").into_inner();
    assert!(err.is_none());
    let trace = without_wall_clock(&String::from_utf8(buf).unwrap());

    for kind in [
        "header",
        "arrival",
        "completion",
        "steal_attempt",
        "steal_success",
        "migration",
        "job_arrival",
        "job_migrate",
        "job_service_start",
        "job_completion",
        "tail_sample",
        "heartbeat",
        "replicate_done",
    ] {
        let tag = format!("{{\"ev\":\"{kind}\"");
        assert!(trace.contains(&tag), "golden trace lacks {kind} lines");
    }
    assert!(trace.contains("\"delay\":"), "no delayed migration");
    assert!(trace.contains("\"count\":2"), "no batch migration");
    assert_eq!(
        (trace.lines().count(), fnv1a(trace.as_bytes())),
        (3293, 11_949_046_471_845_542_811),
        "golden trace bytes drifted"
    );
}

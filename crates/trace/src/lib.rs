//! Analysis of `loadsteal` event streams, live or from NDJSON traces.
//!
//! The simulator and solver stream [`loadsteal_obs::Event`]s as NDJSON
//! (one JSON object per line) via `--trace`. This crate closes the
//! loop: it parses those lines back into typed events
//! ([`reader`]), reconstructs per-processor queue timelines and run
//! phases from the event stream alone ([`timeline`]), rebuilds
//! individual job lifecycles with a wait/transfer/service sojourn
//! decomposition from `job_*` events ([`jobs`]), renders a
//! sim-vs-mean-field comparison table ([`report`]), and replays
//! `tail_sample` streams against the mean-field ODE trajectory to
//! quantify transient drift ([`transient`]).
//!
//! Every analyzer ([`TimelineReplay`], [`JobReplay`],
//! [`transient::TailSamples`]) is a [`loadsteal_obs::Recorder`], attached
//! to a run in-process or fed line by line by [`read_into`], then
//! `finish`ed; neither path holds the whole event stream. The batch entry
//! points (`Timeline::build`, [`read_bytes`], …) are loops over the same.
//!
//! The layering is deliberate: this crate depends only on
//! `loadsteal-obs` (for the event model and the hand-rolled JSON
//! parser). Mean-field predictions are *inputs* — the CLI computes
//! them with `loadsteal-core` and passes a [`report::MeanFieldPrediction`]
//! in, so trace analysis stays usable on any conforming trace without
//! dragging in the ODE stack.
//!
//! # Example
//!
//! ```
//! use loadsteal_trace::{read_into, ReadMode, TimelineConfig, TimelineReplay};
//!
//! let ndjson = "\
//! {\"ev\":\"arrival\",\"t\":0.5,\"proc\":0}\n\
//! {\"ev\":\"completion\",\"t\":1.25,\"proc\":0}\n";
//! // Any `BufRead` works: a `BufReader<File>`, stdin, or bytes in memory.
//! let mut replay = TimelineReplay::new(&TimelineConfig::default());
//! let trace = read_into(ndjson.as_bytes(), ReadMode::Strict, &mut replay).unwrap();
//! assert_eq!(trace.lines, 2);
//! let tl = replay.finish();
//! assert_eq!(tl.counts.arrivals, 1);
//! assert_eq!(tl.n_procs, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jobs;
pub mod reader;
pub mod report;
pub mod timeline;
pub mod transient;

pub use jobs::{render_jobs, Hop, JobAnalysis, JobAnomalies, JobRecord, JobReplay};
pub use reader::{
    parse_record, read_bytes, read_into, read_lines, read_str, ParsedTrace, ReadMode, Record,
    TraceDiagnostic, TraceError,
};
pub use report::{render_report, MeanFieldPrediction};
pub use timeline::{
    EventCounts, ProcTimeline, SolverSummary, Timeline, TimelineConfig, TimelineReplay,
};
pub use transient::{render_transient, DriftEvent, Envelope, TransientAnalysis, TransientOptions};

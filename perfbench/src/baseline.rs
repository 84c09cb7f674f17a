//! A deliberately plain simple-WS simulator: boxed events in a
//! `BinaryHeap`, a `VecDeque` of arrival times per processor. It is the
//! textbook shape of a discrete-event core and the yardstick for the
//! engine's ns per event. `run.py` checks its mean sojourn against the
//! mean-field W, so the yardstick is a correct program.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::plan::SIM_CASES;
use crate::{timed, Metrics};

trait Event {
    fn fire(self: Box<Self>, sim: &mut Sim);
}

struct Scheduled {
    t: f64,
    seq: u64,
    event: Box<dyn Event>,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    /// Reversed, so the max-heap pops the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.t.total_cmp(&self.t).then(other.seq.cmp(&self.seq))
    }
}

struct Sim {
    now: f64,
    seq: u64,
    heap: BinaryHeap<Scheduled>,
    queues: Vec<VecDeque<f64>>,
    rng: SmallRng,
    lambda: f64,
    warmup: f64,
    sojourn_sum: f64,
    sojourn_count: u64,
}

impl Sim {
    fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.rng.random::<f64>()).ln() / rate
    }

    fn schedule(&mut self, dt: f64, event: Box<dyn Event>) {
        self.seq += 1;
        self.heap.push(Scheduled {
            t: self.now + dt,
            seq: self.seq,
            event,
        });
    }

    fn start_service(&mut self, p: usize) {
        let dt = self.exp(1.0);
        self.schedule(dt, Box::new(Completion(p)));
    }
}

struct Arrival(usize);
struct Completion(usize);

impl Event for Arrival {
    fn fire(self: Box<Self>, sim: &mut Sim) {
        let p = self.0;
        sim.queues[p].push_back(sim.now);
        if sim.queues[p].len() == 1 {
            sim.start_service(p);
        }
        let dt = sim.exp(sim.lambda);
        sim.schedule(dt, self);
    }
}

impl Event for Completion {
    fn fire(self: Box<Self>, sim: &mut Sim) {
        let p = self.0;
        let arrived = sim.queues[p]
            .pop_front()
            .expect("completion at a busy processor");
        if sim.now >= sim.warmup {
            sim.sojourn_sum += sim.now - arrived;
            sim.sojourn_count += 1;
        }
        if sim.queues[p].is_empty() {
            // Steal one task from the tail of a uniformly random victim
            // holding at least two.
            let victim = sim.rng.random_range(0..sim.queues.len());
            if sim.queues[victim].len() >= 2 {
                let task = sim.queues[victim].pop_back().expect("victim holds two");
                sim.queues[p].push_back(task);
            }
        }
        if !sim.queues[p].is_empty() {
            sim.start_service(p);
        }
    }
}

/// One run; returns (events processed, sojourn sum, sojourn count).
fn run(n: usize, lambda: f64, horizon: f64, seed: u64) -> (u64, f64, u64) {
    let mut sim = Sim {
        now: 0.0,
        seq: 0,
        heap: BinaryHeap::new(),
        queues: vec![VecDeque::new(); n],
        rng: SmallRng::seed_from_u64(seed),
        lambda,
        warmup: horizon / 10.0,
        sojourn_sum: 0.0,
        sojourn_count: 0,
    };
    for p in 0..n {
        let dt = sim.exp(lambda);
        sim.schedule(dt, Box::new(Arrival(p)));
    }
    let mut events = 0;
    while let Some(next) = sim.heap.pop() {
        if next.t > horizon {
            break;
        }
        sim.now = next.t;
        next.event.fire(&mut sim);
        events += 1;
    }
    (events, sim.sojourn_sum, sim.sojourn_count)
}

/// Run the baseline on the simulate workload's n = 128 configuration,
/// adding `baseline.ns_per_event` and `baseline.mean_sojourn`.
pub fn measure(seed: u64, m: &mut Metrics) {
    let c = &SIM_CASES[0];
    let (totals, wall) = timed(|| {
        (0..c.runs as u64)
            .map(|i| run(c.n, c.lambda, c.horizon, seed.wrapping_add(i)))
            .fold((0, 0.0, 0), |a, r| (a.0 + r.0, a.1 + r.1, a.2 + r.2))
    });
    let (events, sum, count) = totals;
    m.add("baseline.ns_per_event", wall * 1e9 / events as f64, "ns");
    m.add("baseline.mean_sojourn", sum / count as f64, "s");
}

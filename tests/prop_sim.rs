//! Property-based tests on the simulation substrate: the timer wheel
//! against a naive reference model, event-queue ordering, and statistical
//! invariants of the distributions and the histogram.

use proptest::prelude::*;

use potemkin::metrics::LogHistogram;
use potemkin::sim::{EventQueue, SimRng, SimTime, TimerWheel};

#[derive(Clone, Debug)]
enum TimerOp {
    Schedule { deadline_ms: u64 },
    Cancel { pick: usize },
    Advance { by_ms: u64 },
}

fn arb_timer_op() -> impl Strategy<Value = TimerOp> {
    prop_oneof![
        5 => (0u64..100_000).prop_map(|deadline_ms| TimerOp::Schedule { deadline_ms }),
        2 => any::<usize>().prop_map(|pick| TimerOp::Cancel { pick }),
        3 => (0u64..5_000).prop_map(|by_ms| TimerOp::Advance { by_ms }),
    ]
}

#[derive(Clone, Debug)]
enum LivenessOp {
    Schedule {
        deadline_ms: u64,
    },
    /// Cancels any handle ever issued: live, fired, or already cancelled.
    Cancel {
        pick: usize,
    },
    Advance {
        by_ms: u64,
    },
    /// Round-trips the wheel through `snapshot_parts`/`from_parts`.
    Snapshot,
}

fn arb_liveness_op() -> impl Strategy<Value = LivenessOp> {
    prop_oneof![
        5 => (0u64..3_000).prop_map(|deadline_ms| LivenessOp::Schedule { deadline_ms }),
        3 => any::<usize>().prop_map(|pick| LivenessOp::Cancel { pick }),
        2 => (0u64..400).prop_map(|by_ms| LivenessOp::Advance { by_ms }),
        1 => Just(LivenessOp::Snapshot),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Timer liveness against a `HashSet` model: after every schedule,
    /// cancel (of any handle ever issued), advance and snapshot round
    /// trip, `len` and `is_scheduled` agree with the model for every
    /// handle, `cancel` reports liveness, and timers fire in
    /// `(deadline, id)` order.
    #[test]
    fn timer_wheel_liveness_matches_a_set_model(
        ops in proptest::collection::vec(arb_liveness_op(), 1..300),
    ) {
        use std::collections::{HashMap, HashSet};
        let mut wheel: TimerWheel<u64> = TimerWheel::new(SimTime::from_millis(1));
        // Process tick 0 so a deadline at "now" always means the next tick.
        wheel.advance_to(SimTime::ZERO);
        let mut live: HashSet<u64> = HashSet::new();
        let mut deadline: HashMap<u64, u64> = HashMap::new(); // id → effective ms
        let mut issued: Vec<potemkin::sim::TimerHandle> = Vec::new();
        let mut now_ms = 0u64;
        for op in ops {
            match op {
                LivenessOp::Schedule { deadline_ms } => {
                    // Ids count schedules from 0, so the payload is the id.
                    let id = issued.len() as u64;
                    let h = wheel.schedule(SimTime::from_millis(now_ms + deadline_ms), id);
                    prop_assert_eq!(h.raw(), id);
                    live.insert(h.raw());
                    deadline.insert(h.raw(), (now_ms + deadline_ms).max(now_ms + 1));
                    issued.push(h);
                }
                LivenessOp::Cancel { pick } => {
                    if issued.is_empty() { continue; }
                    let h = issued[pick % issued.len()];
                    prop_assert_eq!(wheel.cancel(h), live.remove(&h.raw()));
                }
                LivenessOp::Advance { by_ms } => {
                    now_ms += by_ms;
                    let fired = wheel.advance_to(SimTime::from_millis(now_ms));
                    let mut due: Vec<(u64, u64)> = live
                        .iter()
                        .filter(|id| deadline[id] <= now_ms)
                        .map(|&id| (deadline[&id], id))
                        .collect();
                    due.sort_unstable();
                    for &(_, id) in &due {
                        live.remove(&id);
                    }
                    let want: Vec<u64> = due.into_iter().map(|(_, id)| id).collect();
                    prop_assert_eq!(fired, want, "firing order at t={}ms", now_ms);
                }
                LivenessOp::Snapshot => {
                    let (tick, now, next, parts) = wheel.snapshot_parts();
                    let ids: Vec<u64> = parts.iter().map(|&(id, _, _)| id).collect();
                    let mut want: Vec<u64> = live.iter().copied().collect();
                    want.sort_unstable();
                    prop_assert_eq!(&ids, &want, "snapshot holds exactly the live timers");
                    let parts = parts.into_iter().map(|(id, d, &p)| (id, d, p)).collect();
                    wheel = TimerWheel::from_parts(tick, now, next, parts);
                }
            }
            prop_assert_eq!(wheel.len(), live.len());
            for h in &issued {
                prop_assert_eq!(wheel.is_scheduled(*h), live.contains(&h.raw()));
            }
        }
        // Drain: everything left fires in (deadline, id) order.
        let mut rest: Vec<(u64, u64)> = live.iter().map(|&id| (deadline[&id], id)).collect();
        rest.sort_unstable();
        let fired = wheel.advance_to(SimTime::from_millis(now_ms + 10_000));
        prop_assert_eq!(fired, rest.into_iter().map(|(_, id)| id).collect::<Vec<_>>());
        prop_assert!(wheel.is_empty());
    }

    /// The timer wheel fires exactly the same payload sets as a naive
    /// sorted-list model, never early, and respects cancellation.
    #[test]
    fn timer_wheel_matches_reference_model(ops in proptest::collection::vec(arb_timer_op(), 1..150)) {
        let mut wheel: TimerWheel<u64> = TimerWheel::new(SimTime::from_millis(1));
        // Model: (deadline_ms rounded up to tick, id, handle) of live timers.
        let mut model: Vec<(u64, u64, potemkin::sim::TimerHandle)> = Vec::new();
        let mut now_ms = 0u64;
        let mut next_id = 0u64;

        for op in ops {
            match op {
                TimerOp::Schedule { deadline_ms } => {
                    let h = wheel.schedule(SimTime::from_millis(deadline_ms), next_id);
                    // Past deadlines are clamped to the next unprocessed tick.
                    let effective = deadline_ms.max(now_ms + 1);
                    model.push((effective, next_id, h));
                    next_id += 1;
                }
                TimerOp::Cancel { pick } => {
                    if model.is_empty() { continue; }
                    let idx = pick % model.len();
                    let (_, _, h) = model.remove(idx);
                    prop_assert!(wheel.cancel(h), "live timer must cancel");
                    prop_assert!(!wheel.cancel(h), "double cancel must fail");
                }
                TimerOp::Advance { by_ms } => {
                    now_ms += by_ms;
                    let fired = wheel.advance_to(SimTime::from_millis(now_ms));
                    let mut expected: Vec<u64> = model
                        .iter()
                        .filter(|&&(d, _, _)| d <= now_ms)
                        .map(|&(_, id, _)| id)
                        .collect();
                    model.retain(|&(d, _, _)| d > now_ms);
                    let mut got = fired.clone();
                    got.sort_unstable();
                    expected.sort_unstable();
                    prop_assert_eq!(got, expected, "fired set mismatch at t={}ms", now_ms);
                }
            }
            prop_assert_eq!(wheel.len(), model.len());
        }
    }

    /// Events pop in non-decreasing time order, FIFO within ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last = (0u64, 0usize);
        let mut first = true;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if !first {
                prop_assert!(t > last.0 || (t == last.0 && i > last.1), "order violated");
            }
            last = (t, i);
            first = false;
        }
    }

    /// Histogram quantiles are bounded by min/max and ordered in q, and the
    /// relative error bound holds for every recorded point.
    #[test]
    fn histogram_quantile_invariants(samples in proptest::collection::vec(1u64..1_000_000_000, 1..300)) {
        let mut h = LogHistogram::new(32);
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= min && v <= max, "quantile {q} = {v} outside [{min}, {max}]");
            prop_assert!(v >= last, "quantiles must be monotone in q");
            last = v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let true_mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - true_mean).abs() < 1e-6 * true_mean.max(1.0));
    }

    /// The RNG's bounded sampling is always within bounds.
    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Forked RNG streams never correlate with the parent's continuation.
    #[test]
    fn rng_fork_decorrelates(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from(seed);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        prop_assert_ne!(a, b);
    }
}

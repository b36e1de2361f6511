//! Property tests for the simulation kernel: the calendar is a stable
//! priority queue, the network is per-link FIFO, the CPU conserves work.

use proptest::prelude::*;

use repl_sim::{CpuQueue, EventQueue, Network, SimDuration, SimTime};
use repl_types::SiteId;

proptest! {
    /// Events pop in timestamp order; equal timestamps pop in push order
    /// (stability — what makes runs deterministic).
    #[test]
    fn calendar_is_a_stable_priority_queue(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push_at(SimTime(t), i);
        }
        let mut popped = Vec::new();
        while let Some((at, idx)) = q.pop() {
            popped.push((at, idx));
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "stability violated");
            }
        }
    }

    /// The clock never runs backwards, even with interleaved push/pop.
    #[test]
    fn clock_is_monotone(ops in prop::collection::vec((0u64..100, prop::bool::ANY), 1..200)) {
        let mut q = EventQueue::new();
        let mut last = SimTime::ZERO;
        for (delay, do_pop) in ops {
            q.push_at(q.now() + SimDuration::micros(delay), ());
            if do_pop {
                if let Some((at, ())) = q.pop() {
                    prop_assert!(at >= last);
                    last = at;
                }
            }
        }
        while let Some((at, ())) = q.pop() {
            prop_assert!(at >= last);
            last = at;
        }
    }

    /// Per-link FIFO: deliveries on one (from, to) link never reorder,
    /// whatever per-message latencies are used.
    #[test]
    fn network_links_are_fifo(
        msgs in prop::collection::vec((0u64..4, 0u64..4, 0u64..500, 0u64..300), 1..100)
    ) {
        let mut net = Network::new(4, SimDuration::micros(100));
        let mut now = SimTime::ZERO;
        let mut last_per_link: std::collections::BTreeMap<(u64, u64), SimTime> =
            std::collections::BTreeMap::new();
        for (from, to, gap, latency) in msgs {
            if from == to {
                continue;
            }
            now += SimDuration::micros(gap);
            let at = net.send_with_latency(
                now,
                SiteId(from as u32),
                SiteId(to as u32),
                SimDuration::micros(latency),
            );
            prop_assert!(at >= now, "delivery before send");
            if let Some(&prev) = last_per_link.get(&(from, to)) {
                prop_assert!(at >= prev, "link ({from},{to}) reordered");
            }
            last_per_link.insert((from, to), at);
        }
    }

    /// The CPU queue conserves work: total busy time equals the sum of
    /// service demands, and completions never overlap.
    #[test]
    fn cpu_conserves_work(jobs in prop::collection::vec((0u64..200, 1u64..100), 1..100)) {
        let mut cpu = CpuQueue::new();
        let mut now = SimTime::ZERO;
        let mut total = 0u64;
        let mut last_done = SimTime::ZERO;
        for (gap, service) in jobs {
            now += SimDuration::micros(gap);
            let done = cpu.run(now, SimDuration::micros(service));
            total += service;
            // Service starts no earlier than both arrival and the
            // previous completion.
            prop_assert!(done.as_micros() >= now.as_micros() + service);
            prop_assert!(done.as_micros() >= last_done.as_micros() + service);
            last_done = done;
        }
        prop_assert_eq!(cpu.busy_time().as_micros(), total);
        prop_assert_eq!(cpu.horizon(), last_done);
    }
}
